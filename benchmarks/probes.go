package main

// The layer probes of the traced pass. After the traced workload phase,
// the benchmark calls each module's exported functions itself — in the
// order the program does on a request — with every call inside a span,
// and reports each layer's median. A probe works on the workload's own
// data (its container, its overlay size, its requests), so the same
// metric name read under two workloads compares the layer on two inputs.
// Layers a workload never reaches report nothing and read 0.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sage"
	"sage/internal/cluster"
	"sage/internal/compress"
	"sage/internal/delta"
	"sage/internal/frontier"
	"sage/internal/graph"
	"sage/internal/store"
	"sage/internal/traverse"
	"sage/internal/wal"
)

// probeSlice is the time one probe may spend repeating itself; every
// probe runs at least once.
func (rc *runCtx) probeSlice() time.Duration {
	return time.Duration(rc.cfg.seconds * float64(time.Second) / 40)
}

// maxProbeRuns caps a cheap probe's repetitions.
const maxProbeRuns = 2000

// timeInto runs fn inside a span and appends its duration in
// milliseconds to *into.
func (b *spanBuf) timeInto(name string, parent uint32, req int, into *[]float64, fn func()) {
	si := b.begin(name, parent, int64(req))
	t := time.Now()
	fn()
	*into = append(*into, float64(time.Since(t).Nanoseconds())/1e6)
	b.end(si)
}

// again reports whether a probe loop that has made `done` calls since
// start should make another: always a first, then until budget is spent
// or maxProbeRuns is reached.
func again(done int, start time.Time, budget time.Duration) bool {
	return done == 0 || (done < maxProbeRuns && time.Since(start) < budget)
}

// timed calls fn while again() says so, each call in a root span, and
// returns the per-call durations in milliseconds.
func timed(sb *spanBuf, name string, budget time.Duration, fn func()) []float64 {
	var ms []float64
	for start := time.Now(); again(len(ms), start, budget); {
		sb.timeInto(name, 0, len(ms), &ms, fn)
	}
	return ms
}

// setMS / setUS record a probe's median in milliseconds / microseconds.
func (o *outcome) setMS(name string, ms []float64) { o.setN(name, median(ms), len(ms)) }
func (o *outcome) setUS(name string, ms []float64) { o.setN(name, median(ms)*1e3, len(ms)) }

// --------------------------------------------------------------------
// traverse / graph / compress / delta / store / parallel (algo_*).
// --------------------------------------------------------------------

// edgeMapVariants are the four traversal paths, each forced.
var edgeMapVariants = []struct {
	name string
	opt  traverse.Options
}{
	{"chunked", traverse.Options{Strategy: traverse.Chunked, ForceSparse: true}},
	{"blocked", traverse.Options{Strategy: traverse.Blocked, ForceSparse: true}},
	{"sparse", traverse.Options{Strategy: traverse.Sparse, ForceSparse: true}},
	{"dense", traverse.Options{ForceDense: true}},
}

// probeOps are cheap pure functions, so an edgeMap round costs its edge
// iteration and not the user function.
var probeOps = traverse.Ops{
	Update:       func(s, d uint32, _ int32) bool { return (s+d)&7 == 0 },
	UpdateAtomic: func(s, d uint32, _ int32) bool { return (s+d)&7 == 0 },
	Cond:         traverse.CondTrue,
}

// speedupSubset is what parallel.speedup_p2 reruns on one worker: the
// traversal-bound algorithms, cheap enough to repeat inside a traced run.
var speedupSubset = []string{"bfs", "bc", "cc"}

// iterSink keeps iterEdges' sum alive.
var iterSink uint64

// iterEdges reads every neighbor id of every vertex through the flat
// access path the traversals use: aliased slices for CSR, block decodes
// for byte-compressed graphs, merged decodes for an overlay.
func iterEdges(adj graph.Adj) {
	flat := graph.NewFlat(adj)
	var s graph.Scratch
	var sum uint64
	for v, n := uint32(0), adj.NumVertices(); v < n; v++ {
		nghs, _ := flat.Full(v, &s)
		for _, u := range nghs {
			sum += uint64(u)
		}
	}
	iterSink = sum
}

func meps(edges uint64, ms []float64) float64 { return float64(edges) / (median(ms) / 1e3) / 1e6 }

func probeGraph(rc *runCtx, in *graphInput, inst *algoInstance, eng *sage.Engine) error {
	sb, o, slice := rc.tr.buf(), rc.out, rc.probeSlice()
	adj := inst.h.Raw()
	n := adj.NumVertices()

	// One edgeMap round from a fixed 1/16-of-vertices frontier, per path.
	ids := make([]uint32, 0, n/16+1)
	var outDeg uint64
	for v := uint32(0); v < n; v += 16 {
		ids = append(ids, v)
		outDeg += uint64(adj.Degree(v))
	}
	for _, variant := range edgeMapVariants {
		edges := outDeg
		if variant.opt.ForceDense {
			edges = adj.NumEdges() // the pull scans every vertex's adjacency
		}
		ms := timed(sb, "traverse.edgemap."+variant.name, slice, func() {
			traverse.EdgeMap(adj, nil, frontier.FromSparse(n, ids), probeOps, variant.opt)
		})
		o.setN("traverse.edgemap_meps."+variant.name, meps(edges, ms), len(ms))
	}

	iter := timed(sb, "graph.iter", slice, func() { iterEdges(adj) })
	o.setN("graph.iter_meps", meps(adj.NumEdges(), iter), len(iter))
	if cg, ok := adj.(*compress.CGraph); ok {
		bs := uint32(cg.BlockSize())
		var buf []uint32
		ms := timed(sb, "compress.decode", slice, func() {
			for v := uint32(0); v < n; v++ {
				for b := uint32(0); b*bs < cg.Degree(v); b++ {
					buf = cg.DecodeBlockInto(v, b, buf)
				}
			}
		})
		o.setN("compress.decode_meps", meps(adj.NumEdges(), ms), len(ms))
	}
	if inst.snap != nil {
		base := timed(sb, "graph.iter.base", slice, func() { iterEdges(inst.stored.Raw()) })
		o.set("delta.iter_slowdown", median(iter)/median(base))
		compacted := filepath.Join(rc.dir, "compacted.sg")
		o.setMS("sage.compact_ms", timed(sb, "sage.compact", 0, func() {
			if err := inst.snap.Compact(compacted); err != nil {
				o.fail("compact: %v", err)
			}
		}))
		os.Remove(compacted)
	}

	// The storage layer on this workload's container.
	var err error
	open := func(opts ...sage.OpenOption) func() {
		return func() {
			g, oerr := sage.Open(inst.path, opts...)
			if oerr == nil {
				oerr = g.Close()
			}
			if oerr != nil {
				err = oerr
			}
		}
	}
	o.setMS("store.open_mmap_ms", timed(sb, "store.open_mmap", slice, open()))
	o.setMS("store.open_copy_ms", timed(sb, "store.open_copy", slice, open(sage.WithCopy())))
	rewritten := filepath.Join(rc.dir, "rewritten.sg")
	o.setMS("store.create_ms", timed(sb, "store.create", 0, func() {
		if cerr := sage.Create(rewritten, inst.stored); cerr != nil {
			err = cerr
		}
	}))
	os.Remove(rewritten)
	if err != nil {
		return err
	}

	// Self-relative speedup: the subset on one worker over the same subset
	// at the traced pass's worker count.
	workers := sage.Workers()
	sage.SetWorkers(1)
	defer sage.SetWorkers(workers)
	var one, many float64
	for _, name := range speedupSubset {
		ms := timed(sb, "parallel.p1."+name, 0, func() {
			if _, rerr := eng.RunAlgorithm(context.Background(), name, inst.h, sage.AlgoArgs{}); rerr != nil {
				err = rerr
			}
		})
		one += median(ms)
		many += o.values["algos."+name+"_ms"]
	}
	o.set("parallel.speedup_p2", one/many)
	return err
}

// --------------------------------------------------------------------
// server / costmodel / store / sage on a read (serve_*, cluster_route).
// --------------------------------------------------------------------

// replayResponse has the shape of the run endpoint's body, so marshalling
// it costs what the handler's marshal costs.
type replayResponse struct {
	Dataset    string        `json:"dataset"`
	Generation uint64        `json:"generation"`
	Algo       string        `json:"algo"`
	Args       sage.AlgoArgs `json:"args"`
	Summary    string        `json:"summary"`
	Value      any           `json:"value,omitempty"`
	Stats      struct {
		PSAMCost      int64 `json:"psam_cost"`
		NVRAMReads    int64 `json:"nvram_reads"`
		NVRAMWrites   int64 `json:"nvram_writes"`
		DRAMReads     int64 `json:"dram_reads"`
		DRAMWrites    int64 `json:"dram_writes"`
		PeakDRAMWords int64 `json:"peak_dram_words"`
	} `json:"stats"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// handle sends r straight into h — no socket — and returns the status.
func handle(h http.Handler, r request) int {
	req := httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code
}

// replayRounds bounds the read replay: each round is one engine run.
const replayRounds = 40

// probeServer replays a cache-missing bfs read layer by layer — decode,
// pin, predict, run, marshal — with the benchmark making each call
// itself, then sends the same read into the handler (a miss, then a hit)
// without a socket. primary is the workload's read class; socket_us is
// its socket median minus the handler's median for that class. Where the
// server holds an update overlay, the replay runs on a snapshot with as
// many inserted edges (overlay), so the run it times is the handler's.
func probeServer(rc *runCtx, hc *http.Client, n *node, path, dataset string, in *graphInput, primary class, overlay []sage.EdgeOp) error {
	sb, o := rc.tr.buf(), rc.out
	eng := sage.NewEngine()
	cache := store.NewCache(0)
	defer cache.Clear()
	warm, err := cache.Acquire(path, store.OpenOptions{})
	if err != nil {
		return err
	}
	defer warm.Release()
	snap, err := sage.GraphFromDataset(warm.Dataset()).Snapshot().ApplyBatch(overlay)
	if err != nil {
		return err
	}

	var decode, pin, predict, run, marshal, miss, hit, bodyKB []float64
	for r, start := 0, time.Now(); err == nil && r < replayRounds && again(r, start, 8*rc.probeSlice()); r++ {
		// Sources from the far end of the shuffled list, which no lane
		// reaches, so the handler's first sight of each is a miss.
		full := bfsRequest(dataset, in.src(len(in.giant)-2-r), false, clsMiss, expectBFS)
		slim := bfsRequest(dataset, full.src, true, clsHit, expectHitSlim)
		replay := func() {
			root := sb.begin("replay.read", 0, int64(r))
			defer sb.end(root)
			parent := sb.id(root)
			var args, canon sage.AlgoArgs
			sb.timeInto("server.decode", parent, r, &decode, func() {
				dec := json.NewDecoder(bytes.NewReader(full.body))
				dec.DisallowUnknownFields()
				if derr := dec.Decode(&args); derr != nil {
					err = derr
				}
				var extra json.RawMessage
				if derr := dec.Decode(&extra); derr != io.EOF {
					err = fmt.Errorf("trailing data after args")
				}
				canon, _ = sage.CanonicalArgs("bfs", args)
			})
			var h *store.Handle
			sb.timeInto("store.pin", parent, r, &pin, func() {
				var perr error
				if h, perr = cache.Acquire(path, store.OpenOptions{}); perr != nil {
					err = perr
				}
			})
			if err != nil {
				return
			}
			defer h.Release()
			g := snap.Graph()
			sb.timeInto("costmodel.predict", parent, r, &predict, func() {
				_, _ = eng.PredictCost("bfs", g)
				_, _ = sage.EstimateDRAMWords("bfs", g)
			})
			var res *sage.AlgoResult
			sb.timeInto("sage.run", parent, r, &run, func() {
				var rerr error
				if res, rerr = eng.RunAlgorithm(context.Background(), "bfs", g, canon); rerr != nil {
					err = rerr
				}
			})
			if err != nil {
				return
			}
			sb.timeInto("server.marshal", parent, r, &marshal, func() {
				resp := replayResponse{Dataset: dataset, Generation: 1, Algo: "bfs", Args: canon,
					Summary: res.Summary, Value: res.Value, ElapsedMS: 1.234}
				resp.Stats.PSAMCost, resp.Stats.NVRAMReads = res.Stats.PSAMCost, res.Stats.NVRAMReads
				resp.Stats.DRAMReads, resp.Stats.DRAMWrites = res.Stats.DRAMReads, res.Stats.DRAMWrites
				resp.Stats.PeakDRAMWords = res.Stats.PeakDRAMWords
				body, _ := json.Marshal(resp)
				resp.Value = nil
				slimBody, _ := json.Marshal(resp)
				bodyKB = append(bodyKB, float64(len(body)+len(slimBody))/1024)
			})
		}
		handler := func() {
			sb.timeInto("server.handler.miss", 0, r, &miss, func() {
				if code := handle(n.srv, full); code != http.StatusOK {
					err = fmt.Errorf("handler answered %d to %s", code, full.path)
				}
			})
			sb.timeInto("server.handler.hit", 0, r, &hit, func() {
				if code := handle(n.srv, slim); code != http.StatusOK {
					err = fmt.Errorf("handler answered %d to %s", code, slim.path)
				}
			})
		}
		// Whichever goes second finds the source's BFS warm in the caches,
		// so the two take turns going first.
		if r%2 == 0 {
			replay()
			handler()
		} else {
			handler()
			replay()
		}
	}
	if err != nil {
		return err
	}
	o.setUS("server.decode_us", decode)
	o.setUS("store.pin_us", pin)
	o.setUS("costmodel.predict_us", predict)
	o.setMS("sage.run_ms", run)
	o.setMS("server.marshal_ms", marshal)
	o.set("server.body_kb", median(bodyKB))
	o.setMS("server.handler_miss_ms", miss)
	o.setUS("server.handler_hit_us", hit)
	children := median(decode) + median(pin) + median(predict) + median(run) + median(marshal)
	o.set("server.handler_self_us", (median(miss)-children)*1e3)
	handler := median(miss)
	if primary == clsHit {
		handler = median(hit)
	}
	o.set("server.socket_us", (o.values["socket."+classNames[primary]+"_p50_ms"]-handler)*1e3)
	return nil
}

// --------------------------------------------------------------------
// delta / wal / server on an update (serve_update, cluster_route).
// --------------------------------------------------------------------

// reserved returns the two edges at the end of a draw that no pool uses:
// probes may flip them on a live server as long as they flip them back.
func reserved(edges []sage.EdgeOp) []sage.EdgeOp { return edges[len(edges)-2:] }

// spareEdges is how many edges beyond its pools a workload draws for the
// write-path probes: one single-op batch and the two reserved edges.
const spareEdges = 3

// probeUpdates times the write path's layers: Overlay.Apply on an empty
// and a preloaded overlay, the WAL's buffer and commit halves on a log of
// its own beside the container, a bare fsync, and the update handler
// without a socket. edges are non-base edges: the probe builds overlays
// of its own from the front of the list, and flips the reserved last two
// on the live server, inserting then deleting, so its state is unchanged.
// liveOverlay is the size of the server's own overlay: update_self_us
// subtracts an Apply on an overlay that large from the handler.
func probeUpdates(rc *runCtx, n *node, path, dataset string, edges []sage.EdgeOp, liveOverlay int) error {
	sb, o, slice := rc.tr.buf(), rc.out, rc.probeSlice()
	stored, err := sage.Open(path)
	if err != nil {
		return err
	}
	defer stored.Close()

	toDelta := func(ops []sage.EdgeOp) []delta.Op {
		out := make([]delta.Op, len(ops))
		for i, op := range ops {
			out[i] = delta.Op{U: op.U, V: op.V, W: op.W}
		}
		return out
	}
	loaded, batch := edges[:rc.sc.preload], edges[rc.sc.preload:rc.sc.preload+rc.sc.bulkOps]
	single, live := edges[len(edges)-3:len(edges)-2], reserved(edges)
	empty := delta.New(stored.Raw())
	preloaded, err := empty.Apply(toDelta(loaded))
	if err != nil {
		return err
	}
	for _, ov := range []struct {
		name string
		ov   *delta.Overlay
	}{{"empty", empty}, {"2k", preloaded}} {
		for _, sz := range []struct {
			name string
			ops  []delta.Op
		}{{"1op", toDelta(single)}, {"1kop", toDelta(batch)}} {
			o.setUS("delta.apply_us."+ov.name+"."+sz.name, timed(sb, "delta.apply."+ov.name+"."+sz.name, slice/2, func() {
				if _, aerr := ov.ov.Apply(sz.ops); aerr != nil {
					err = aerr
				}
			}))
		}
	}
	sized, aerr := empty.Apply(toDelta(edges[:liveOverlay]))
	if aerr != nil {
		return aerr
	}
	applyLive := timed(sb, "delta.apply.live.1op", slice/2, func() {
		if _, aerr := sized.Apply(toDelta(single)); aerr != nil {
			err = aerr
		}
	})
	if err != nil {
		return err
	}

	// The WAL on a segment of the probe's own, bound to the same container.
	fp, err := wal.FingerprintFile(wal.OS, path)
	if err != nil {
		return err
	}
	log, _, err := wal.Open(filepath.Join(rc.dir, "probe.wal"), fp, wal.Options{})
	if err != nil {
		return err
	}
	walOp := []wal.Op{{U: single[0].U, V: single[0].V, W: single[0].W}}
	size0 := log.Size()
	var buffer, commit []float64
	// Each append is committed before the next, as the one writer's are.
	for start := time.Now(); err == nil && again(len(commit), start, slice); {
		var pending *wal.Pending
		sb.timeInto("wal.append", 0, len(buffer), &buffer, func() { pending, err = log.AppendBuffer(walOp, nil) })
		if err == nil {
			sb.timeInto("wal.commit", 0, len(commit), &commit, func() { err = log.Commit(pending) })
		}
	}
	o.setUS("wal.append_us", buffer)
	o.setUS("wal.commit_us", commit)
	o.set("wal.bytes_per_op", float64(log.Size()-size0)/float64(len(buffer)))
	if cerr := log.CloseAndRemove(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fsync, err := fsyncProbeUS(rc.dir, 64)
	if err != nil {
		return err
	}
	o.set("wal.fsync_us", fsync)

	// The update handler, no socket: insert then delete a reserved edge,
	// in pairs, so the loop always ends with it deleted.
	var handler []float64
	for start := time.Now(); err == nil && again(len(handler), start, slice); {
		for _, del := range []bool{false, true} {
			r := request{path: "/v1/update/" + dataset, body: updateBody(live[:1], del)}
			sb.timeInto("server.update_handler", 0, len(handler), &handler, func() {
				if code := handle(n.srv, r); code != http.StatusOK {
					err = fmt.Errorf("update handler answered %d", code)
				}
			})
		}
	}
	if err != nil {
		return err
	}
	o.setUS("server.update_handler_us", handler)
	layers := median(applyLive)*1e3 + o.values["wal.append_us"] + o.values["wal.commit_us"]
	o.set("server.update_self_us", o.values["server.update_handler_us"]-layers)
	return nil
}

// --------------------------------------------------------------------
// cluster (cluster_route).
// --------------------------------------------------------------------

// exchangeMS times one socket exchange outside any lane.
func exchangeMS(hc *http.Client, base string, r request) (float64, error) {
	t := time.Now()
	_, _, err := post(hc, base, r)
	return float64(time.Since(t).Nanoseconds()) / 1e6, err
}

// probeCluster measures what the router adds: ring lookup, its handler
// without a socket, and routed-minus-direct latency for a slim hit and
// for a one-op update (whose routed form fans out to both owners).
func probeCluster(rc *runCtx, hc *http.Client, c *routed, web *graphInput, live []sage.EdgeOp) error {
	sb, o, slice := rc.tr.buf(), rc.out, rc.probeSlice()
	ring, err := cluster.NewRing(0, replicaNames...)
	if err != nil {
		return err
	}
	const lookups = 100_000
	ms := timed(sb, "cluster.ring_lookup.100k", 0, func() {
		for i := 0; i < lookups; i++ {
			runtime.KeepAlive(ring.Owners("web", len(replicaNames)))
		}
	})
	o.set("cluster.ring_lookup_ns", median(ms)*1e6/lookups)

	hitReq := bfsRequest("web", web.src(0), true, clsHit, expectHitSlim)
	o.setUS("cluster.router_handler_us", timed(sb, "cluster.router_handler", slice, func() {
		if code := handle(c.router, hitReq); code != http.StatusOK {
			err = fmt.Errorf("router handler answered %d", code)
		}
	}))
	if err != nil {
		return err
	}

	owner := c.primary("web")
	var routedHit, directHit []float64
	for start := time.Now(); again(len(routedHit), start, 2*slice); {
		r, err := exchangeMS(hc, c.front.url, hitReq)
		if err != nil {
			return err
		}
		d, err := exchangeMS(hc, owner.url, hitReq)
		if err != nil {
			return err
		}
		routedHit, directHit = append(routedHit, r), append(directHit, d)
	}
	o.setN("cluster.proxy_overhead_us", (median(routedHit)-median(directHit))*1e3, len(routedHit))

	// One-op updates of a reserved edge, inserted then deleted: through
	// the router (both owners apply it) and straight at feed's primary
	// (which alone sees that pair, and ends where it began).
	feedPrimary := c.primary("feed")
	var routedUpd, directUpd []float64
	for start := time.Now(); again(len(routedUpd), start, 2*slice); {
		for _, del := range []bool{false, true} {
			upd := request{path: "/v1/update/feed", body: updateBody(live[:1], del)}
			r, err := exchangeMS(hc, c.front.url, upd)
			if err != nil {
				return err
			}
			upd.body = updateBody(live[1:2], del)
			d, err := exchangeMS(hc, feedPrimary.url, upd)
			if err != nil {
				return err
			}
			routedUpd, directUpd = append(routedUpd, r), append(directUpd, d)
		}
	}
	o.setN("cluster.fanout_overhead_us", (median(routedUpd)-median(directUpd))*1e3, len(routedUpd))

	var metrics struct {
		ReadFailovers int64 `json:"read_failovers"`
	}
	if err := getJSON(hc, c.front.url+"/metrics", &metrics); err != nil {
		return err
	}
	o.set("cluster.read_failovers", float64(metrics.ReadFailovers))
	return nil
}
