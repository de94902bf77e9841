package server_test

// End-to-end coverage of the cost-model serving features: the
// X-Sage-Cost-* response headers, cost-based admission (and its
// agreement with the legacy DRAM word gate), overlay auto-compaction at
// the hysteresis threshold, and the per-dataset overlay cost surfaced in
// /v1/datasets and /metrics.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"sage"
	"sage/internal/server"
)

// costHeader parses one X-Sage-Cost-* integer header.
func costHeader(t *testing.T, hdr http.Header, name string) int64 {
	t.Helper()
	raw := hdr.Get(name)
	if raw == "" {
		t.Fatalf("missing %s header", name)
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		t.Fatalf("%s = %q: %v", name, raw, err)
	}
	return v
}

func TestRunCostHeaders(t *testing.T) {
	ts := newTestServer(t, server.Config{})

	code, _, hdr := postRun(t, ts.URL, "web", "bfs", `{"src": 0}`)
	if code != http.StatusOK {
		t.Fatalf("run: %d", code)
	}
	if m := hdr.Get("X-Sage-Cost-Model"); m != "optane" {
		t.Fatalf("X-Sage-Cost-Model = %q, want optane (the default)", m)
	}
	predicted := costHeader(t, hdr, "X-Sage-Cost-Predicted")
	actual := costHeader(t, hdr, "X-Sage-Cost-Actual")
	energy := costHeader(t, hdr, "X-Sage-Cost-Energy-NJ")
	if predicted <= 0 || actual <= 0 || energy <= 0 {
		t.Fatalf("non-positive cost headers: predicted=%d actual=%d energy=%d", predicted, actual, energy)
	}
	// The estimate is deliberately coarse, but it must be the right order
	// of magnitude — within 32x of the measured cost on this workload.
	if predicted > actual*32 || actual > predicted*32 {
		t.Fatalf("prediction off the scale: predicted=%d actual=%d", predicted, actual)
	}

	// A cache hit still reports the model and the prediction (no run
	// happened, so there is no fresh actual).
	code, _, hdr = postRun(t, ts.URL, "web", "bfs", `{"src": 0}`)
	if code != http.StatusOK || hdr.Get("X-Sage-Cache") != "hit" {
		t.Fatalf("expected cache hit, got %d cache=%q", code, hdr.Get("X-Sage-Cache"))
	}
	if hdr.Get("X-Sage-Cost-Model") == "" || hdr.Get("X-Sage-Cost-Predicted") == "" {
		t.Fatal("cache hit dropped the cost headers")
	}
}

// TestCostModelHeaderFollowsEngine pins the header to the configured
// profile: a flash engine prices the same run on the flash scale.
func TestCostModelHeaderFollowsEngine(t *testing.T) {
	ts := newTestServer(t, server.Config{
		Engine:             sage.NewEngine(sage.WithModel(sage.CostModelFlash())),
		ResultCacheEntries: -1,
	})
	code, _, hdr := postRun(t, ts.URL, "web", "bfs", `{"src": 0}`)
	if code != http.StatusOK {
		t.Fatalf("run: %d", code)
	}
	if m := hdr.Get("X-Sage-Cost-Model"); m != "flash" {
		t.Fatalf("X-Sage-Cost-Model = %q, want flash", m)
	}
}

// TestAdmissionCostBudget mirrors TestAdmissionDRAMBudget on the cost
// gate: a budget far below one run's predicted cost sheds concurrent
// runs with 429 naming the gate, while an oversized run alone is still
// admitted.
func TestAdmissionCostBudget(t *testing.T) {
	ts := newTestServer(t, server.Config{
		MaxConcurrent:      8,
		CostBudget:         10,
		ResultCacheEntries: -1,
	})

	cancel, done := slowRun(t, ts.URL, "web")
	defer cancel()
	waitFor(t, "slow run in flight", func() bool { return inflight(t, ts.URL) == 1 })

	code, body, hdr := postRun(t, ts.URL, "web", "bfs", ``)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-budget run: %d %v, want 429", code, body)
	}
	if msg, _ := body["error"].(string); msg == "" || !contains(msg, "cost") {
		t.Fatalf("429 body does not name the cost gate: %v", body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	cancel()
	<-done
	waitFor(t, "budget released", func() bool { return inflight(t, ts.URL) == 0 })
	code, _, _ = postRun(t, ts.URL, "web", "bfs", ``)
	if code != http.StatusOK {
		t.Fatalf("solo oversized run refused: %d", code)
	}
	_, m := getJSON(t, ts.URL+"/metrics")
	if metric(t, m, "admission", "rejected_cost") < 1 {
		t.Fatalf("cost rejection not counted: %v", m["admission"])
	}
	if metric(t, m, "admission", "cost_budget") != 10 {
		t.Fatalf("cost budget not reported: %v", m["admission"])
	}
}

// TestAdmissionGatesAgree is the differential acceptance check: under
// the default Optane model, the cost gate and the legacy DRAM word gate
// must make the same accept/shed decision on the admission test
// workloads when both budgets are equally (un)constrained.
func TestAdmissionGatesAgree(t *testing.T) {
	workloads := []struct{ dataset, algo string }{
		{"web", "bfs"}, {"web", "cc"}, {"road", "bfs"}, {"road", "kcore"},
	}
	// tight: budgets far below any single run -> both gates shed the
	// concurrent probe. ample: budgets far above the pair -> both admit.
	for _, tc := range []struct {
		name        string
		words, cost int64
		wantShed    bool
	}{
		{"tight", 10, 10, true},
		{"ample", 1 << 40, 1 << 40, false},
	} {
		for _, wl := range workloads {
			name := fmt.Sprintf("%s/%s/%s", tc.name, wl.dataset, wl.algo)
			wordGate := probeGate(t, server.Config{
				MaxConcurrent: 8, DRAMBudgetWords: tc.words, ResultCacheEntries: -1,
			}, wl.dataset, wl.algo)
			costGate := probeGate(t, server.Config{
				MaxConcurrent: 8, CostBudget: tc.cost, ResultCacheEntries: -1,
			}, wl.dataset, wl.algo)
			if wordGate != costGate {
				t.Errorf("%s: gates disagree: dram shed=%v cost shed=%v", name, wordGate, costGate)
			}
			if wordGate != tc.wantShed {
				t.Errorf("%s: dram gate shed=%v, want %v", name, wordGate, tc.wantShed)
			}
		}
	}
}

// probeGate reports whether a probe run is shed while a slow run holds
// the server's budget.
func probeGate(t *testing.T, cfg server.Config, dataset, algo string) (shed bool) {
	t.Helper()
	ts := newTestServer(t, cfg)
	cancel, done := slowRun(t, ts.URL, dataset)
	defer func() {
		cancel()
		<-done
	}()
	waitFor(t, "slow run in flight", func() bool { return inflight(t, ts.URL) == 1 })
	code, body, _ := postRun(t, ts.URL, dataset, algo, ``)
	switch code {
	case http.StatusTooManyRequests:
		return true
	case http.StatusOK:
		return false
	default:
		t.Fatalf("probe %s/%s: %d %v", dataset, algo, code, body)
		return false
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestAutoCompactionFiresOnce injects overlay growth through repeated
// small insert batches and asserts the hysteresis trigger folds the
// overlay exactly once at the threshold — and stays quiet on the batches
// after the fold restarts the overlay near zero.
func TestAutoCompactionFiresOnce(t *testing.T) {
	ts := newChainServer(t, server.Config{
		AutoCompactCost:    60,
		ResultCacheEntries: -1,
	})

	fired := 0
	for i := 0; i < 10; i++ {
		// Distinct edges so every batch genuinely grows the overlay.
		code, upd := postUpdate(t, ts.URL, "chain",
			fmt.Sprintf(`{"ops": [{"u": 0, "v": %d}]}`, i+2))
		if code != http.StatusOK {
			t.Fatalf("batch %d: %d %v", i, code, upd)
		}
		if upd["auto_compacted"] == true {
			fired++
			if upd["compacted"] != true {
				t.Fatalf("auto_compacted without compacted: %v", upd)
			}
			if metric(t, upd, "delta_words") != 0 {
				t.Fatalf("auto-compaction left a delta: %v", upd)
			}
			break
		}
		// Until the threshold, the overlay's predicted cost is visible
		// and growing in the dataset listing.
		_, ds := getJSON(t, ts.URL+"/v1/datasets")
		entry := ds["datasets"].([]any)[0].(map[string]any)
		t.Logf("batch %d: overlay_cost_predicted=%v delta_words=%v", i, entry["overlay_cost_predicted"], entry["delta_words"])
		if metric(t, entry, "overlay_cost_predicted") <= 0 {
			t.Fatalf("batch %d: no overlay cost in listing: %v", i, entry)
		}
	}
	if fired != 1 {
		t.Fatalf("auto-compaction fired %d times in the growth phase", fired)
	}

	// Two more small batches restart the overlay well below the band: no
	// second fire, and the counter pins at one.
	for i := 0; i < 2; i++ {
		code, upd := postUpdate(t, ts.URL, "chain",
			fmt.Sprintf(`{"ops": [{"u": 1, "v": %d}]}`, i+3))
		if code != http.StatusOK {
			t.Fatalf("post-fire batch %d: %d %v", i, code, upd)
		}
		if upd["auto_compacted"] == true {
			t.Fatalf("auto-compaction flapped on post-fire batch %d: %v", i, upd)
		}
	}
	_, m := getJSON(t, ts.URL+"/metrics")
	if metric(t, m, "updates", "auto_compactions") != 1 {
		t.Fatalf("auto_compactions = %v, want 1", m["updates"])
	}
	if metric(t, m, "updates", "auto_compact_cost") != 60 {
		t.Fatalf("auto_compact_cost not reported: %v", m["updates"])
	}
	// The folded edges survived into the rewritten base.
	code, run, _ := postRun(t, ts.URL, "chain", "bfs", `{"src": 0}`)
	if code != http.StatusOK {
		t.Fatalf("post-compact run: %d", code)
	}
	if v, ok := run["value"].([]any); !ok || len(v) != 10 {
		t.Fatalf("post-compact bfs value: %v", run["value"])
	}
}

// TestPerDatasetDeltaMetrics pins the /metrics per-dataset overlay view:
// delta words and arcs alongside the predicted overlay cost, keyed by
// dataset name.
func TestPerDatasetDeltaMetrics(t *testing.T) {
	ts := newChainServer(t, server.Config{})

	if code, _ := postUpdate(t, ts.URL, "chain",
		`{"ops": [{"u": 0, "v": 2}, {"u": 0, "v": 3}, {"u": 1, "v": 3, "del": false}]}`); code != http.StatusOK {
		t.Fatal("update rejected")
	}
	_, m := getJSON(t, ts.URL+"/metrics")
	if metric(t, m, "updates", "delta_words") <= 0 {
		t.Fatalf("aggregate delta words missing: %v", m["updates"])
	}
	per := metric(t, m, "updates", "per_dataset", "chain", "delta_words")
	if per != metric(t, m, "updates", "delta_words") {
		t.Fatalf("per-dataset words %v != aggregate %v", per, metric(t, m, "updates", "delta_words"))
	}
	if metric(t, m, "updates", "per_dataset", "chain", "delta_arcs_added") != 6 {
		t.Fatalf("per-dataset arcs: %v", m["updates"])
	}
	if metric(t, m, "updates", "per_dataset", "chain", "overlay_cost_predicted") <= 0 {
		t.Fatalf("per-dataset overlay cost missing: %v", m["updates"])
	}
	if name := m["updates"].(map[string]any)["cost_model"]; name != "optane" {
		t.Fatalf("updates cost_model = %v, want optane", name)
	}
}

// TestLearnedCostConverges runs every registry algorithm four times on
// one generated graph (default arguments, set cover with its sets
// declared, result cache off): the fourth prediction, learned from three
// runs, must be within 2x of the fourth run's actual cost. The learned
// estimate then survives an update batch, a compaction and an eviction of
// the dataset, is listed under /metrics cost_estimates, and a fresh
// server over the same file predicts the seed again.
func TestLearnedCostConverges(t *testing.T) {
	dir := t.TempDir()
	webPath := makeDataset(t, dir, "web", 10, 1)
	roadPath := makeDataset(t, dir, "road", 10, 2)
	cfg := server.Config{
		DatasetBudgetWords: 10_000, // one rmat-10 graph is ~7.1k words
		ResultCacheEntries: -1,
	}
	start := func() *httptest.Server {
		s := server.New(cfg)
		if err := s.AddDataset("web", webPath); err != nil {
			t.Fatal(err)
		}
		if err := s.AddDataset("road", roadPath); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s)
		t.Cleanup(func() {
			ts.Close()
			_ = s.Close()
		})
		return ts
	}
	ts := start()
	args := func(a sage.Algorithm) string {
		if a.SetCover {
			return `{"numsets": 256}`
		}
		return ``
	}
	run := func(base, dataset string, a sage.Algorithm) (predicted, actual int64) {
		t.Helper()
		code, body, hdr := postRun(t, base, dataset, a.Name, args(a))
		if code != http.StatusOK || hdr.Get("X-Sage-Cache") != "miss" {
			t.Fatalf("%s: %d cache=%q %v", a.Name, code, hdr.Get("X-Sage-Cache"), body)
		}
		return costHeader(t, hdr, "X-Sage-Cost-Predicted"), costHeader(t, hdr, "X-Sage-Cost-Actual")
	}
	estimates := func(base string) map[string]any {
		t.Helper()
		_, m := getJSON(t, base+"/metrics")
		return m["cost_estimates"].(map[string]any)
	}

	algos := sage.Algorithms()
	for _, a := range algos {
		var pred, act [4]int64
		for i := range pred {
			pred[i], act[i] = run(ts.URL, "web", a)
		}
		t.Logf("%-14s predicted/actual: seed %6.2f, after three runs %6.2f",
			a.Name, float64(pred[0])/float64(act[0]), float64(pred[3])/float64(act[3]))
		if pred[3] > 2*act[3] || act[3] > 2*pred[3] {
			t.Errorf("%s: learned prediction %d not within 2x of actual %d", a.Name, pred[3], act[3])
		}
	}

	learned := estimates(ts.URL)
	web := learned["web"].(map[string]any)
	if len(web) != len(algos) {
		t.Fatalf("cost_estimates lists %d algorithms for web, want %d: %v", len(web), len(algos), web)
	}
	if road := learned["road"].(map[string]any); len(road) != 0 {
		t.Fatalf("cost_estimates lists algorithms that never ran on road: %v", road)
	}
	for name, v := range web {
		if f, ok := v.(float64); !ok || f <= 0 {
			t.Fatalf("cost_estimates web/%s = %v, want a positive cost per (n + m)", name, v)
		}
	}

	// Neither an update batch, nor a compaction, nor an eviction of the
	// mapping forgets what the dataset learned.
	same := func(what string) {
		t.Helper()
		if got := estimates(ts.URL)["web"]; fmt.Sprint(got) != fmt.Sprint(web) {
			t.Fatalf("estimates changed by %s:\n%v\n%v", what, web, got)
		}
	}
	if code, upd := postUpdate(t, ts.URL, "web", `{"ops": [{"u": 0, "v": 1000}]}`); code != http.StatusOK {
		t.Fatalf("update: %d %v", code, upd)
	}
	same("an update batch")
	if code, upd := postUpdate(t, ts.URL, "web", `{"compact": true}`); code != http.StatusOK || upd["compacted"] != true {
		t.Fatalf("compact: %d %v", code, upd)
	}
	same("a compaction")
	bfs := algos[0]
	run(ts.URL, "road", bfs)
	_, m := getJSON(t, ts.URL+"/metrics")
	if metric(t, m, "datasets", "evictions") < 1 {
		t.Fatalf("road did not evict web: %v", m["datasets"])
	}
	same("an eviction")

	// A restarted server starts from the seed: every algorithm predicts
	// one edge pass of the (compacted) file.
	g, err := sage.Open(webPath)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	seed, err := sage.NewEngine().PredictCost(bfs.Name, g)
	if err != nil {
		t.Fatal(err)
	}
	fresh := start()
	for _, a := range algos {
		if pred, _ := run(fresh.URL, "web", a); pred != seed.Cost {
			t.Errorf("%s: restarted server predicted %d, want the seed %d", a.Name, pred, seed.Cost)
		}
	}
}
