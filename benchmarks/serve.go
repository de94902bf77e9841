package main

// The serve_* workloads: one server.Server behind a real http.Server on
// 127.0.0.1:0, driven over loopback by closed-loop clients in the same
// process (one Go scheduler shares the CPUs between clients and server,
// instead of two runtimes fighting for them).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"

	"sage"
	"sage/internal/graph"
	"sage/internal/server"
)

// front is an http.Handler listening on a loopback port.
type front struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*front, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &front{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(f.done)
		_ = f.hs.Serve(ln) // returns ErrServerClosed on stop
	}()
	return f, nil
}

// stop closes the listener and every connection and waits until the
// serving goroutine has ended. Callers stop a front only once their
// clients are done, so nothing is in flight; a graceful Shutdown would
// only add a five-second wait for connections a client dialled ahead and
// never used.
func (f *front) stop() {
	_ = f.hs.Close()
	<-f.done
}

// node is one sage server with the product's defaults — WAL on, fsync
// policy always, 256-entry result cache — behind a socket.
type node struct {
	*front
	srv      *server.Server
	datasets map[string]string // name -> container path
	stopped  bool
}

func startNode(datasets map[string]string) (*node, error) {
	srv := server.New(server.Config{Durability: server.Durability{Enabled: true}})
	for name, path := range datasets {
		if err := srv.AddDataset(name, path); err != nil {
			return nil, err
		}
	}
	if _, degraded := srv.Recover(); len(degraded) > 0 {
		return nil, fmt.Errorf("datasets degraded at start-up: %v", degraded)
	}
	for name := range datasets {
		if err := srv.Preload(name); err != nil {
			return nil, err
		}
	}
	f, err := listen(srv)
	if err != nil {
		return nil, err
	}
	return &node{front: f, srv: srv, datasets: datasets}, nil
}

// stop is idempotent: the replay check stops a node early, and the
// workload's deferred teardown stops it again.
func (n *node) stop() {
	if n.stopped {
		return
	}
	n.stopped = true
	n.front.stop()
	_ = n.srv.Close() // nothing is in flight; the WAL is already durable
}

// post sends one request outside any measured phase and returns the
// reply body; any status but 200 is an error.
func post(hc *http.Client, base string, r request) ([]byte, http.Header, error) {
	resp, err := hc.Post(base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("POST %s: status %d: %.200s", r.path, resp.StatusCode, body)
	}
	return body, resp.Header, nil
}

// getJSON decodes a GET endpoint's reply into v.
func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// datasetEdges asks a server's /v1/datasets for one dataset's arc count.
func datasetEdges(hc *http.Client, base, name string) (uint64, error) {
	var listing struct {
		Datasets []struct {
			Name  string `json:"name"`
			Edges uint64 `json:"edges"`
		} `json:"datasets"`
	}
	if err := getJSON(hc, base+"/v1/datasets", &listing); err != nil {
		return 0, err
	}
	for _, d := range listing.Datasets {
		if d.Name == name {
			return d.Edges, nil
		}
	}
	return 0, fmt.Errorf("dataset %q not listed", name)
}

// serverCounters is the part of a server's /metrics the benchmark reads.
type serverCounters struct {
	Runs struct {
		Failed int64 `json:"failed"`
	} `json:"runs"`
	Admission struct {
		RejectedConcurrent int64 `json:"rejected_concurrency"`
		RejectedDRAM       int64 `json:"rejected_dram"`
		RejectedCost       int64 `json:"rejected_cost"`
	} `json:"admission"`
	ResultCache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"result_cache"`
	WAL struct {
		GroupSyncs   int64 `json:"group_syncs"`
		GroupBatches int64 `json:"group_batches"`
	} `json:"wal"`
}

func scrape(hc *http.Client, base string) (serverCounters, error) {
	var c serverCounters
	return c, getJSON(hc, base+"/metrics", &c)
}

// reportCounters turns two /metrics scrapes around a phase into the
// count metrics of the server layer.
func reportCounters(rc *runCtx, before, after serverCounters) {
	hits := after.ResultCache.Hits - before.ResultCache.Hits
	misses := after.ResultCache.Misses - before.ResultCache.Misses
	if hits+misses > 0 {
		rc.out.set("server.cache_hit_ratio", float64(hits)/float64(hits+misses))
	}
	rejected := func(c serverCounters) int64 {
		return c.Admission.RejectedConcurrent + c.Admission.RejectedDRAM + c.Admission.RejectedCost
	}
	rc.out.set("server.rejected_total", float64(rejected(after)-rejected(before)))
	rc.out.set("server.runs_failed", float64(after.Runs.Failed-before.Runs.Failed))
	if syncs := after.WAL.GroupSyncs - before.WAL.GroupSyncs; syncs > 0 {
		rc.out.set("wal.batches_per_sync", float64(after.WAL.GroupBatches-before.WAL.GroupBatches)/float64(syncs))
	}
}

// phaseWindows is how many consecutive windows a measured phase is cut
// into; every latency and rate is the median over them (overWindows).
const phaseWindows = 5

// classStats condenses one class's latencies over the windows: its
// median and its tailPct-th percentile, with the smallest window's size.
func classStats(windows []*phaseResult, c class, tailPct float64) (p50, tail float64, perWindow int) {
	lat := make([][]float64, len(windows))
	for i, w := range windows {
		lat[i] = w.byClass(c)
	}
	return overWindows(lat, 50), overWindows(lat, tailPct), smallestWindow(lat)
}

// reportPhase turns a measured phase into metrics. primary is the class
// p50_ms and tail_ms describe, tailPct the percentile tail_ms is (p99
// wherever a window holds the thousand samples that takes; a percentile
// is reported only with ten samples beyond it); every class is also
// reported under its
// socket.* name, and the same phase run under the tracer yields
// trace.ops_per_s, whose distance from ops_per_s is the tracing overhead.
// It returns the windows merged, for the checks that follow.
func reportPhase(rc *runCtx, windows []*phaseResult, primary class, tailPct float64) *phaseResult {
	o := rc.out
	all := &phaseResult{routed: map[string]int{}}
	var rates []float64
	for _, w := range windows {
		all.wall += w.wall
		all.samples = append(all.samples, w.samples...)
		all.failed += w.failed
		all.failures = append(all.failures, w.failures...)
		all.kept = append(all.kept, w.kept...)
		all.allocKB += w.allocKB
		all.gcPause += w.gcPause
		for peer, n := range w.routed {
			all.routed[peer] += n
		}
		rates = append(rates, float64(len(w.samples))/w.wall.Seconds())
	}
	o.attempted += len(all.samples) + all.failed
	o.failed += all.failed
	for _, f := range all.failures {
		if len(o.notes) < maxNotes {
			o.notes = append(o.notes, "FAILED: "+f)
		}
	}
	p50, tail, n := classStats(windows, primary, tailPct)
	o.setN("p50_ms", p50, n*len(windows))
	o.setN("tail_ms", tail, n*len(windows))
	o.note("tail_ms is the median over %d windows of each window's p%.0f (%d or more %s samples per window)",
		len(windows), tailPct, n, classNames[primary])
	o.setN("ops_per_s", median(rates), len(all.samples))
	o.set("alloc_kb_per_op", all.allocKB/max(float64(len(all.samples)), 1))
	o.set("peak_rss_mb", peakRSSMB())

	o.set("trace.ops_per_s", median(rates))
	o.set("process.gc_pause_ms", float64(all.gcPause.Nanoseconds())/1e6)
	for _, c := range []class{clsHit, clsMiss, clsUpdate, clsBulk} {
		if p50, tail, n := classStats(windows, c, 99); n > 0 {
			o.setN("socket."+classNames[c]+"_p50_ms", p50, n*len(windows))
			if c != clsBulk {
				o.setN("socket."+classNames[c]+"_p99_ms", tail, n*len(windows))
			}
		}
	}
	return all
}

// deepCheck validates the retained replies against refalgo on ref: BFS
// trees and wbfs distances.
func deepCheck(rc *runCtx, kept []keptReply, ref *graph.Graph) {
	for _, k := range kept {
		rc.out.attempted++
		rb, err := decodeRunBody(k.body)
		if err == nil && k.req.check == expectBFS {
			err = validateBFS(ref, k.req.src, rb.Value)
		}
		if err == nil && k.req.check == expectWBFS {
			err = validateWBFS(ref, k.req.src, rb.Value)
		}
		if err != nil {
			rc.out.fail("%s: %v", k.req.path, err)
		}
	}
}

// stripValue cuts the `"value":[...],` member out of a full run body,
// leaving what the ?value=false rendering of the same run must be.
func stripValue(full []byte) []byte {
	start := bytes.Index(full, []byte(`"value":[`))
	if start < 0 {
		return full
	}
	end := bytes.Index(full[start:], []byte(`],`))
	if end < 0 {
		return full
	}
	return append(append([]byte(nil), full[:start]...), full[start+end+2:]...)
}

// warmKeys fills the result cache through base with the first `keys`
// BFS sources and records what every later hit must return: the full
// body is the miss's own, and the slim body must be that miss body with
// the value cut out.
func warmKeys(hc *http.Client, base, dataset string, in *graphInput, keys int, exp *expectations) error {
	for k := 0; k < keys; k++ {
		full := bfsRequest(dataset, in.src(k), false, clsOther, expectHitFull)
		miss, hdr, err := post(hc, base, full)
		if err != nil {
			return err
		}
		if c := hdr.Get("X-Sage-Cache"); c != "miss" {
			return fmt.Errorf("warming key %d: expected a miss, got %q", k, c)
		}
		slim := bfsRequest(dataset, in.src(k), true, clsHit, expectHitSlim)
		hit, _, err := post(hc, base, slim)
		if err != nil {
			return err
		}
		if !bytes.Equal(hit, stripValue(miss)) {
			return fmt.Errorf("warming key %d: slim hit body is not the miss body minus its value", k)
		}
		exp.digests[full.path+string(full.body)] = crc32.ChecksumIEEE(miss)
		exp.digests[slim.path+string(slim.body)] = crc32.ChecksumIEEE(hit)
	}
	return nil
}

// served is a serve_* instance: the node, its container and the lanes
// that walk the workload's request sequences.
type served struct {
	n     *node
	path  string
	lanes []*lane
}

func (s *served) stop() {
	if s.n != nil {
		s.n.stop()
	}
}

// startServed writes in's container into dir and starts a server on it
// as dataset "web".
func startServed(dir string, in *graphInput) (*served, error) {
	s := &served{path: filepath.Join(dir, "web.sg")}
	if err := sage.Create(s.path, in.g); err != nil {
		return s, err
	}
	var err error
	s.n, err = startNode(map[string]string{"web": s.path})
	return s, err
}

// measure runs the discarded warm-up, then the measured phase — as
// phaseWindows consecutive windows of the lanes' sequences — between two
// scrapes of the server at metricsURL, and reports it.
func measure(rc *runCtx, hc *http.Client, metricsURL string, lanes []*lane, primary class, tailPct float64) (*phaseResult, error) {
	warm := drive(hc, nil, lanes, rc.measureFor()/20, 0)
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d requests failed: %v", warm.failed, warm.failures)
	}
	settle()
	before, err := scrape(hc, metricsURL)
	if err != nil {
		return nil, err
	}
	windows := make([]*phaseResult, phaseWindows)
	for w := range windows {
		windows[w] = drive(hc, rc.tr, lanes, rc.measureFor()/phaseWindows, 0)
	}
	after, err := scrape(hc, metricsURL)
	if err != nil {
		return nil, err
	}
	reportCounters(rc, before, after)
	return reportPhase(rc, windows, primary, tailPct), nil
}

func runServeMiss(rc *runCtx) error {
	web, err := makeGraph(rc.sc.serveLogN, rc.cfg.seed)
	if err != nil {
		return err
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	exp := newExpectations(web)
	// Set-up: write the container, start the server, answer one cycle of
	// the request mix.
	s, err := setUp(rc, func(dir string) (*served, error) {
		s, err := startServed(dir, web)
		if err != nil {
			return s, err
		}
		s.lanes = []*lane{{base: s.n.url, clients: clients(), exp: exp,
			next: func(i int) request { return missRequest(web, i) }}}
		return s, firstCycle(hc, s.lanes, missCycle)
	}, (*served).stop)
	if err != nil {
		return err
	}
	defer s.stop()

	// A window holds a few hundred bfs misses, which support a p95.
	p, err := measure(rc, hc, s.n.url, s.lanes, clsMiss, 95)
	if err != nil {
		return err
	}
	deepCheck(rc, p.kept, web.g.RawCSR())
	if rc.cfg.trace {
		return probeServer(rc, hc, s.n, s.path, "web", web, clsMiss, nil)
	}
	return nil
}

func runServeHit(rc *runCtx) error {
	web, err := makeGraph(rc.sc.serveLogN, rc.cfg.seed)
	if err != nil {
		return err
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	exp := newExpectations(web)
	table := makeHitTable(rand.New(rand.NewSource(int64(rc.cfg.seed)+2)), rc.sc.hitKeys)
	// Set-up: write the container, start the server, fill the result cache
	// with the keys the workload reads.
	s, err := setUp(rc, func(dir string) (*served, error) {
		s, err := startServed(dir, web)
		if err != nil {
			return s, err
		}
		s.lanes = []*lane{{base: s.n.url, clients: clients(), exp: exp,
			next: func(i int) request { return hitRequest(web, table, i) }}}
		return s, warmKeys(hc, s.n.url, "web", web, rc.sc.hitKeys, exp)
	}, (*served).stop)
	if err != nil {
		return err
	}
	defer s.stop()

	if _, err := measure(rc, hc, s.n.url, s.lanes, clsHit, 99); err != nil {
		return err
	}
	if rc.cfg.trace {
		return probeServer(rc, hc, s.n, s.path, "web", web, clsHit, nil)
	}
	return nil
}

// preloadBatch is how many inserts one set-up update request carries.
const preloadBatch = 256

func runServeUpdate(rc *runCtx) error {
	web, err := makeGraph(rc.sc.serveLogN, rc.cfg.seed)
	if err != nil {
		return err
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	// One draw of distinct non-edges feeds the preloaded overlay, both
	// toggle pools and the probes' spares, so none of them overlap.
	rng := rand.New(rand.NewSource(int64(rc.cfg.seed) + 3))
	edges := web.nonEdges(rng, rc.sc.preload+rc.sc.onePool+rc.sc.bulkOps+spareEdges)
	preload := edges[:rc.sc.preload]
	one := togglePool(edges[rc.sc.preload : rc.sc.preload+rc.sc.onePool])
	bulk := edges[rc.sc.preload+rc.sc.onePool:][:rc.sc.bulkOps]
	exp := newExpectations(web)

	// Set-up: write the container, start the server with its WAL, insert
	// the preloaded overlay, then one writer cycle beside reads.
	s, err := setUp(rc, func(dir string) (*served, error) {
		s, err := startServed(dir, web)
		if err != nil {
			return s, err
		}
		for lo := 0; lo < len(preload); lo += preloadBatch {
			batch := preload[lo:min(lo+preloadBatch, len(preload))]
			if _, _, err := post(hc, s.n.url, request{path: "/v1/update/web", body: updateBody(batch, false)}); err != nil {
				return s, err
			}
		}
		writer := &lane{base: s.n.url, clients: 1, exp: exp,
			next: func(j int) request { return writerRequest(one, bulk, j) }}
		// Readers take whatever CPUs the one writer leaves. Their sources
		// never repeat and the generation keeps moving, so every read runs
		// the engine over the current overlay.
		reader := &lane{base: s.n.url, clients: max(1, clients()-1), exp: exp,
			next: func(i int) request { return bfsRequest("web", web.src(i), true, clsMiss, expectMiss) }}
		s.lanes = []*lane{writer, reader}
		return s, firstCycle(hc, s.lanes, updateCycle)
	}, (*served).stop)
	if err != nil {
		return err
	}
	defer s.stop()

	if _, err := measure(rc, hc, s.n.url, s.lanes, clsUpdate, 99); err != nil {
		return err
	}
	if rc.cfg.trace {
		if err := probeServer(rc, hc, s.n, s.path, "web", web, clsMiss, preload); err != nil {
			return err
		}
		if err := probeUpdates(rc, s.n, s.path, "web", edges, len(preload)); err != nil {
			return err
		}
	}

	// End state: the overlay holds the preload plus whatever the toggle
	// sequence left present, and survives a restart.
	present := len(preload) + writerPresent(one, len(bulk), int(s.lanes[0].issued.Load()))
	return checkEndState(rc, hc, s.n, "web", web, present)
}

// servedState is what a server answers about one dataset: its merged arc
// count and the digest of the BFS depths from one source.
type servedState struct {
	arcs   uint64
	depths uint32
}

func stateOf(hc *http.Client, base, dataset string, src uint32) (servedState, error) {
	var st servedState
	var err error
	if st.arcs, err = datasetEdges(hc, base, dataset); err != nil {
		return st, err
	}
	body, _, err := post(hc, base, bfsRequest(dataset, src, false, clsOther, expectRun))
	if err != nil {
		return st, err
	}
	rb, err := decodeRunBody(body)
	if err != nil {
		return st, err
	}
	levels, err := bfsLevels(rb.Value, src)
	if err != nil {
		return st, err
	}
	st.depths = digest32(levels)
	return st, nil
}

// checkEndState verifies that n serves base + 2 arcs per overlay edge
// for dataset, then stops n and checks that a fresh server over the same
// directory replays the WAL to the same arc count and BFS depths.
func checkEndState(rc *runCtx, hc *http.Client, n *node, dataset string, in *graphInput, overlayEdges int) error {
	rc.out.attempted += 2
	src := in.src(0)
	live, err := stateOf(hc, n.url, dataset, src)
	if err != nil {
		return err
	}
	if want := in.g.NumEdges() + 2*uint64(overlayEdges); live.arcs != want {
		rc.out.fail("%s serves %d arcs, the toggle sequence implies %d (%d overlay edges)", dataset, live.arcs, want, overlayEdges)
	}
	n.stop()
	restarted, err := startNode(n.datasets)
	if err != nil {
		return fmt.Errorf("restart over the same directory: %w", err)
	}
	defer restarted.stop()
	replayed, err := stateOf(hc, restarted.url, dataset, src)
	if err != nil {
		return err
	}
	if replayed != live {
		rc.out.fail("%s after WAL replay: %d arcs, depths %08x; before the restart %d arcs, depths %08x",
			dataset, replayed.arcs, replayed.depths, live.arcs, live.depths)
	}
	return nil
}
