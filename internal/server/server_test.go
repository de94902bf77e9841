package server_test

// httptest coverage of the serving layer: endpoint happy paths, the
// client-error contract (404 unknown dataset/algorithm, 400 bad args),
// admission-control shedding under saturation (both gates), run
// cancellation on client disconnect (without leaking goroutines), result
// caching through args canonicalization, and dataset LRU eviction, which
// keeps the generation.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sage"
	"sage/internal/server"
)

// makeDataset persists a small generated graph and returns its path.
func makeDataset(t *testing.T, dir, name string, logN int, seed uint64) string {
	t.Helper()
	g := sage.GenerateRMAT(logN, 8, seed)
	path := filepath.Join(dir, name+".sg")
	if err := sage.Create(path, g); err != nil {
		t.Fatalf("create %s: %v", name, err)
	}
	return path
}

// newTestServer builds a server over freshly persisted datasets "web"
// and "road" and wraps it in an httptest server.
func newTestServer(t *testing.T, cfg server.Config) *httptest.Server {
	t.Helper()
	dir := t.TempDir()
	s := server.New(cfg)
	if err := s.AddDataset("web", makeDataset(t, dir, "web", 10, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDataset("road", makeDataset(t, dir, "road", 9, 2)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		_ = s.Close()
	})
	return ts
}

// getJSON fetches url and decodes the response body.
func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
	return resp.StatusCode, body
}

// postRun issues a run request and decodes the response.
func postRun(t *testing.T, base, dataset, algo, args string) (int, map[string]any, http.Header) {
	t.Helper()
	resp, err := http.Post(base+"/v1/run/"+dataset+"/"+algo, "application/json",
		strings.NewReader(args))
	if err != nil {
		t.Fatalf("POST run: %v", err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("POST run: decoding: %v", err)
	}
	return resp.StatusCode, body, resp.Header
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// metric digs a numeric field out of a nested JSON object.
func metric(t *testing.T, body map[string]any, path ...string) float64 {
	t.Helper()
	cur := any(body)
	for _, p := range path {
		m, ok := cur.(map[string]any)
		if !ok {
			t.Fatalf("metric %v: not an object at %q", path, p)
		}
		cur = m[p]
	}
	f, ok := cur.(float64)
	if !ok {
		t.Fatalf("metric %v: %T is not a number", path, cur)
	}
	return f
}

func TestEndpointsHappyPath(t *testing.T) {
	ts := newTestServer(t, server.Config{})

	code, health := getJSON(t, ts.URL+"/healthz")
	if code != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, health)
	}

	code, algos := getJSON(t, ts.URL+"/v1/algorithms")
	if code != http.StatusOK {
		t.Fatalf("algorithms: %d", code)
	}
	list, ok := algos["algorithms"].([]any)
	if !ok || len(list) < 24 {
		t.Fatalf("algorithms listing: %v", algos)
	}
	first := list[0].(map[string]any)
	if first["name"] != "bfs" {
		t.Fatalf("first algorithm %v, want bfs", first["name"])
	}
	params := first["params"].([]any)
	if params[0].(map[string]any)["name"] != "src" {
		t.Fatalf("bfs params: %v", params)
	}

	// Before any run, datasets are registered but not open.
	code, dss := getJSON(t, ts.URL+"/v1/datasets")
	if code != http.StatusOK {
		t.Fatalf("datasets: %d", code)
	}
	for _, d := range dss["datasets"].([]any) {
		if d.(map[string]any)["open"] != false {
			t.Fatalf("dataset open before first request: %v", d)
		}
	}

	// A run: lazily opens the dataset, reports summary + stats.
	code, run, hdr := postRun(t, ts.URL, "web", "bfs", `{"src": 0}`)
	if code != http.StatusOK {
		t.Fatalf("bfs run: %d %v", code, run)
	}
	if run["summary"] == "" || hdr.Get("X-Sage-Cache") != "miss" {
		t.Fatalf("bfs response: %v (cache %q)", run, hdr.Get("X-Sage-Cache"))
	}
	if metric(t, run, "stats", "psam_cost") <= 0 {
		t.Fatal("run has no PSAM accounting")
	}
	if metric(t, run, "generation") != 1 {
		t.Fatalf("generation %v, want 1", run["generation"])
	}
	if _, ok := run["value"].([]any); !ok {
		t.Fatalf("bfs value missing: %T", run["value"])
	}

	// The dataset now lists as open and memory-mapped.
	_, dss = getJSON(t, ts.URL+"/v1/datasets")
	var web map[string]any
	for _, d := range dss["datasets"].([]any) {
		if dm := d.(map[string]any); dm["name"] == "web" {
			web = dm
		}
	}
	if web == nil || web["open"] != true || web["mapped"] != true {
		t.Fatalf("web dataset after run: %v", web)
	}
	if metric(t, web, "vertices") != 1024 {
		t.Fatalf("web vertices %v", web["vertices"])
	}

	// An identical query — empty args canonicalize to {"src":0} — is
	// answered from the result cache.
	code, run2, hdr2 := postRun(t, ts.URL, "web", "bfs", ``)
	if code != http.StatusOK || hdr2.Get("X-Sage-Cache") != "hit" {
		t.Fatalf("repeat run not cached: %d %q", code, hdr2.Get("X-Sage-Cache"))
	}
	if run2["summary"] != run["summary"] {
		t.Fatalf("cached summary differs: %v vs %v", run2["summary"], run["summary"])
	}

	// ?value=false omits the bulk payload.
	resp, err := http.Post(ts.URL+"/v1/run/web/pagerank?value=false", "application/json",
		strings.NewReader(`{"maxiters": 20}`))
	if err != nil {
		t.Fatal(err)
	}
	var pr map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pagerank: %d %v", resp.StatusCode, pr)
	}
	if _, present := pr["value"]; present {
		t.Fatalf("value=false still returned a value")
	}

	// /metrics surfaces the engine aggregate and run counters.
	code, m := getJSON(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if metric(t, m, "engine", "psam_cost") <= 0 {
		t.Fatal("metrics: no aggregate PSAM cost")
	}
	if metric(t, m, "engine", "nvram_writes") != 0 {
		t.Fatal("metrics: sage discipline violated (NVRAM writes)")
	}
	if metric(t, m, "runs", "ok") < 2 {
		t.Fatalf("metrics runs: %v", m["runs"])
	}
	if metric(t, m, "result_cache", "hits") < 1 {
		t.Fatalf("metrics result_cache: %v", m["result_cache"])
	}
	rc, _ := m["result_cache"].(map[string]any)
	for _, k := range []string{"entries", "capacity", "bytes", "bytes_limit", "hits", "misses"} {
		metric(t, m, "result_cache", k)
	}
	if len(rc) != 6 {
		t.Fatalf("metrics result_cache has %d keys, want 6: %v", len(rc), rc)
	}
}

func TestClientErrors(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	cases := []struct {
		name, dataset, algo, args string
		wantCode                  int
		wantInError               string
	}{
		{"unknown dataset", "nope", "bfs", ``, http.StatusNotFound, "unknown dataset"},
		{"unknown algorithm", "web", "sort", ``, http.StatusNotFound, "unknown algorithm"},
		{"malformed json", "web", "bfs", `{"src":`, http.StatusBadRequest, "args"},
		{"trailing garbage", "web", "bfs", `{"src": 1}{"src": 2}`, http.StatusBadRequest, "args"},
		{"trailing junk", "web", "bfs", `{"src": 1} nonsense`, http.StatusBadRequest, "args"},
		{"unknown field", "web", "bfs", `{"sourcevertex": 3}`, http.StatusBadRequest, "args"},
		{"negative vertex", "web", "bfs", `{"src": -1}`, http.StatusBadRequest, "args"},
		{"setcover without numsets", "web", "setcover", ``, http.StatusBadRequest, "NumSets"},
		{"src out of range", "web", "bfs", `{"src": 99999}`, http.StatusBadRequest, "out of range"},
		{"invalid k", "web", "kclique", `{"k": 2}`, http.StatusBadRequest, "k >= 3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body, _ := postRun(t, ts.URL, tc.dataset, tc.algo, tc.args)
			if code != tc.wantCode {
				t.Fatalf("code %d, want %d (%v)", code, tc.wantCode, body)
			}
			msg, _ := body["error"].(string)
			if !strings.Contains(msg, tc.wantInError) {
				t.Fatalf("error %q does not mention %q", msg, tc.wantInError)
			}
		})
	}
}

// slowRun starts a pagerank that cannot converge (eps far below float
// resolution of the residual) so it runs until cancelled.
func slowRun(t *testing.T, base, dataset string) (cancel func(), done <-chan error) {
	t.Helper()
	ctx, cancelCtx := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		base+"/v1/run/"+dataset+"/pagerank",
		bytes.NewReader([]byte(`{"eps": 1e-300, "maxiters": 1000000000}`)))
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		ch <- err
	}()
	return cancelCtx, ch
}

// inflight reads the admission gauge.
func inflight(t *testing.T, base string) float64 {
	_, m := getJSON(t, base+"/metrics")
	return metric(t, m, "admission", "inflight_runs")
}

func TestAdmissionConcurrencyLimit(t *testing.T) {
	ts := newTestServer(t, server.Config{MaxConcurrent: 1, ResultCacheEntries: -1})

	cancel, done := slowRun(t, ts.URL, "web")
	defer cancel()
	waitFor(t, "slow run in flight", func() bool { return inflight(t, ts.URL) == 1 })

	code, body, hdr := postRun(t, ts.URL, "web", "bfs", ``)
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated run: %d %v, want 429", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "concurrency") {
		t.Fatalf("429 body does not name the gate: %v", body)
	}

	cancel()
	<-done
	waitFor(t, "slot released", func() bool { return inflight(t, ts.URL) == 0 })

	// Capacity restored: the same query now runs.
	code, _, _ = postRun(t, ts.URL, "web", "bfs", ``)
	if code != http.StatusOK {
		t.Fatalf("post-saturation run: %d", code)
	}
	_, m := getJSON(t, ts.URL+"/metrics")
	if metric(t, m, "admission", "rejected_concurrency") < 1 {
		t.Fatalf("rejection not counted: %v", m["admission"])
	}
}

func TestAdmissionDRAMBudget(t *testing.T) {
	// A budget far below one run's vertex-proportional estimate: the
	// first run is admitted alone (an oversized run may run solo), any
	// concurrent second run must be shed by the DRAM gate.
	ts := newTestServer(t, server.Config{
		MaxConcurrent:      8,
		DRAMBudgetWords:    10,
		ResultCacheEntries: -1,
	})

	cancel, done := slowRun(t, ts.URL, "web")
	defer cancel()
	waitFor(t, "slow run in flight", func() bool { return inflight(t, ts.URL) == 1 })

	code, body, _ := postRun(t, ts.URL, "web", "bfs", ``)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-budget run: %d %v, want 429", code, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "dram") {
		t.Fatalf("429 body does not name the dram gate: %v", body)
	}

	cancel()
	<-done
	waitFor(t, "budget released", func() bool { return inflight(t, ts.URL) == 0 })
	code, _, _ = postRun(t, ts.URL, "web", "bfs", ``)
	if code != http.StatusOK {
		t.Fatalf("solo oversized run refused: %d", code)
	}
	_, m := getJSON(t, ts.URL+"/metrics")
	if metric(t, m, "admission", "rejected_dram") < 1 {
		t.Fatalf("dram rejection not counted: %v", m["admission"])
	}
}

// TestRetryAfterRestsOnObservedRuns: until a run has ended the server
// knows no run time, so a shed run is told the no-history second and
// /metrics reports no smoothed run time. A run the client cancelled
// does not set it; the first run to finish does.
func TestRetryAfterRestsOnObservedRuns(t *testing.T) {
	ts := newTestServer(t, server.Config{
		MaxConcurrent:      8,
		DRAMBudgetWords:    10,
		ResultCacheEntries: -1,
	})
	ewmaRunMS := func() float64 {
		_, m := getJSON(t, ts.URL+"/metrics")
		return metric(t, m, "admission", "ewma_run_ms")
	}

	cancel, done := slowRun(t, ts.URL, "web")
	defer cancel()
	waitFor(t, "slow run in flight", func() bool { return inflight(t, ts.URL) == 1 })

	code, body, hdr := postRun(t, ts.URL, "web", "bfs", ``)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-budget run: %d %v, want 429", code, body)
	}
	if got := hdr.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After before any run ended = %q, want 1", got)
	}
	if got := ewmaRunMS(); got != 0 {
		t.Fatalf("ewma_run_ms before any run ended = %v, want 0", got)
	}

	cancel()
	<-done
	waitFor(t, "the cancelled run to end", func() bool { return inflight(t, ts.URL) == 0 })
	if got := ewmaRunMS(); got != 0 {
		t.Fatalf("ewma_run_ms after a cancelled run = %v, want 0", got)
	}
	if code, body, _ := postRun(t, ts.URL, "web", "bfs", ``); code != http.StatusOK {
		t.Fatalf("solo run: %d %v", code, body)
	}
	if got := ewmaRunMS(); got <= 0 {
		t.Fatalf("ewma_run_ms after a finished run = %v, want > 0", got)
	}
}

// TestRetryAfterIgnoresFailedRuns: a request whose arguments the run
// rejects answers 400 in microseconds and says nothing about how long
// a slot stays held, so a burst of them leaves the smoothed run time
// where the last finished run put it.
func TestRetryAfterIgnoresFailedRuns(t *testing.T) {
	ts := newTestServer(t, server.Config{ResultCacheEntries: -1})
	ewmaRunMS := func() float64 {
		_, m := getJSON(t, ts.URL+"/metrics")
		return metric(t, m, "admission", "ewma_run_ms")
	}
	if code, body, _ := postRun(t, ts.URL, "web", "pagerank", ``); code != http.StatusOK {
		t.Fatalf("pagerank: %d %v", code, body)
	}
	before := ewmaRunMS()
	if before <= 0 {
		t.Fatalf("ewma_run_ms after a finished run = %v, want > 0", before)
	}
	for i := 0; i < 10; i++ {
		if code, body, _ := postRun(t, ts.URL, "web", "bfs", `{"src": 99999999}`); code != http.StatusBadRequest {
			t.Fatalf("out-of-range src: %d %v, want 400", code, body)
		}
	}
	if got := ewmaRunMS(); got != before {
		t.Fatalf("ewma_run_ms moved from %v to %v on ten 400s", before, got)
	}
}

// TestRetryAfterCountsTimedOutRuns: a run cut at MaxRunDuration held
// its slot for exactly that long, which is what the estimate records.
func TestRetryAfterCountsTimedOutRuns(t *testing.T) {
	const limit = 40 * time.Millisecond
	ts := newTestServer(t, server.Config{ResultCacheEntries: -1, MaxRunDuration: limit})
	code, body, _ := postRun(t, ts.URL, "web", "pagerank", `{"eps": 1e-300, "maxiters": 1000000000}`)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("unbounded pagerank: %d %v, want 504", code, body)
	}
	_, m := getJSON(t, ts.URL+"/metrics")
	if got, want := metric(t, m, "admission", "ewma_run_ms"), float64(limit.Milliseconds()); got != want {
		t.Fatalf("ewma_run_ms after a timed-out run = %v, want %v", got, want)
	}
}

func TestClientDisconnectCancelsRun(t *testing.T) {
	ts := newTestServer(t, server.Config{ResultCacheEntries: -1})

	// Warm up: starts the persistent worker pool and the HTTP keepalive
	// machinery so the baseline goroutine count is the steady state.
	if code, _, _ := postRun(t, ts.URL, "web", "bfs", ``); code != http.StatusOK {
		t.Fatal("warmup failed")
	}
	http.DefaultClient.CloseIdleConnections()
	time.Sleep(50 * time.Millisecond)
	base := runtime.NumGoroutine()

	cancel, done := slowRun(t, ts.URL, "web")
	waitFor(t, "slow run in flight", func() bool { return inflight(t, ts.URL) == 1 })
	cancel() // client walks away mid-run
	if err := <-done; err == nil {
		t.Fatal("disconnected request reported success")
	}

	// The server must observe the disconnect and cancel the Run.
	waitFor(t, "run cancellation", func() bool {
		_, m := getJSON(t, ts.URL+"/metrics")
		return metric(t, m, "runs", "cancelled") >= 1 && inflight(t, ts.URL) == 0
	})

	// And no goroutines may leak: everything the request spawned winds
	// down (the worker pool is persistent by design and already counted
	// in the baseline).
	waitFor(t, "goroutines to settle", func() bool {
		http.DefaultClient.CloseIdleConnections()
		runtime.GC()
		return runtime.NumGoroutine() <= base+3
	})
}

func TestDatasetEvictionKeepsGeneration(t *testing.T) {
	// Budget fits one dataset at a time: running against "road" evicts
	// the idle "web", whose next open maps the same unchanged file and so
	// serves the same generation. The result cache is disabled so the
	// reopen is observable.
	dir := t.TempDir()
	webPath := makeDataset(t, dir, "web", 10, 1)
	s := server.New(server.Config{
		DatasetBudgetWords: 10_000, // one rmat-10 graph is ~7.1k words
		ResultCacheEntries: -1,
	})
	if err := s.AddDataset("web", webPath); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDataset("road", makeDataset(t, dir, "road", 10, 2)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer func() {
		ts.Close()
		_ = s.Close()
	}()

	code, first, _ := postRun(t, ts.URL, "web", "bfs", ``)
	if code != http.StatusOK || metric(t, first, "generation") != 1 {
		t.Fatalf("first web run: %d gen %v", code, first["generation"])
	}
	if code, _, _ := postRun(t, ts.URL, "road", "bfs", ``); code != http.StatusOK {
		t.Fatal("road run failed")
	}
	code, again, _ := postRun(t, ts.URL, "web", "bfs", ``)
	if code != http.StatusOK {
		t.Fatal("second web run failed")
	}
	if gen := metric(t, again, "generation"); gen != 1 {
		t.Fatalf("generation after eviction = %v, want 1", gen)
	}
	delete(first, "elapsed_ms")
	delete(again, "elapsed_ms")
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(again)
	if !bytes.Equal(a, b) {
		t.Fatalf("the reopened dataset answered differently:\n%s\n%s", a, b)
	}
	_, m := getJSON(t, ts.URL+"/metrics")
	if metric(t, m, "datasets", "evictions") < 1 {
		t.Fatalf("no evictions recorded: %v", m["datasets"])
	}
}

// TestEvictedReplicaPublishesAtPrimaryGeneration sends one batch to two
// servers the way the cluster router fans it out: to the primary, then to
// a secondary with the primary's resulting generation as the
// X-Sage-Sync-Generation floor. The secondary's dataset budget has evicted
// the dataset in between, and an eviction is not a new state: both must
// publish the batch at the same generation.
func TestEvictedReplicaPublishesAtPrimaryGeneration(t *testing.T) {
	replica := func(budget int64) *httptest.Server {
		dir := t.TempDir()
		// A 1024-vertex chain is ~3k words and an rmat-10 graph ~7.1k, so an
		// 8k budget holds either but not both.
		s := server.New(server.Config{DatasetBudgetWords: budget})
		if err := s.AddDataset("web", makeChain(t, dir, "web", 1024)); err != nil {
			t.Fatal(err)
		}
		if err := s.AddDataset("road", makeDataset(t, dir, "road", 10, 2)); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s)
		t.Cleanup(func() {
			ts.Close()
			_ = s.Close()
		})
		return ts
	}
	primary, secondary := replica(0), replica(8_000)
	for _, ts := range []*httptest.Server{primary, secondary} {
		if code, run, _ := postRun(t, ts.URL, "web", "cc", ``); code != http.StatusOK || metric(t, run, "generation") != 1 {
			t.Fatalf("web run: %d %v", code, run)
		}
	}
	if code, _, _ := postRun(t, secondary.URL, "road", "cc", ``); code != http.StatusOK {
		t.Fatal("road run failed")
	}
	if _, m := getJSON(t, secondary.URL+"/metrics"); metric(t, m, "datasets", "evictions") < 1 {
		t.Fatalf("the secondary evicted nothing: %v", m["datasets"])
	}

	const batch = `{"ops":[{"u":0,"v":1023}]}`
	code, res := postUpdate(t, primary.URL, "web", batch)
	if code != http.StatusOK || metric(t, res, "generation") != 2 {
		t.Fatalf("primary update: %d %v", code, res)
	}
	req, err := http.NewRequest(http.MethodPost, secondary.URL+"/v1/update/web", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(server.SyncGenerationHeader, "2")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || metric(t, out, "generation") != 2 || resp.Header.Get(server.GenerationHeader) != "2" {
		t.Fatalf("secondary published the batch at %v (header %q), the primary at 2",
			out["generation"], resp.Header.Get(server.GenerationHeader))
	}
}

func TestConcurrentMixedLoad(t *testing.T) {
	ts := newTestServer(t, server.Config{MaxConcurrent: 4})
	queries := []struct{ dataset, algo, args string }{
		{"web", "bfs", `{"src": 1}`},
		{"web", "pagerank", `{"eps": 0.001, "maxiters": 30}`},
		{"road", "cc", ``},
		{"road", "kcore", ``},
	}
	var wg sync.WaitGroup
	errs := make([]error, 24)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := queries[i%len(queries)]
			resp, err := http.Post(
				fmt.Sprintf("%s/v1/run/%s/%s", ts.URL, q.dataset, q.algo),
				"application/json", strings.NewReader(q.args))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
				errs[i] = fmt.Errorf("query %d: status %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	_, m := getJSON(t, ts.URL+"/metrics")
	if metric(t, m, "runs", "ok") < 1 {
		t.Fatalf("no successful runs under load: %v", m["runs"])
	}
	if metric(t, m, "engine", "nvram_writes") != 0 {
		t.Fatal("concurrent serving violated the read-only graph discipline")
	}
}

// TestAlgorithmsListingGolden pins the /v1/algorithms body byte for byte:
// the listing is marshalled straight from the registry's own types, so a
// renamed field or a kind that stops marshalling by name changes the wire.
func TestAlgorithmsListingGolden(t *testing.T) {
	s := server.New(server.Config{})
	defer s.Close()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/algorithms", nil))
	want, err := os.ReadFile(filepath.Join("testdata", "algorithms.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("status %d, body differs from testdata/algorithms.golden.json:\n%s", rec.Code, rec.Body.Bytes())
	}
}
