package server_test

// End-to-end coverage of the cost-model serving features: the
// X-Sage-Cost-* and X-Sage-DRAM-Predicted response headers, cost-based
// admission (and its agreement with the DRAM word gate), the DRAM gate's
// learned charge, overlay auto-compaction at the hysteresis threshold,
// and the per-dataset overlay cost surfaced in /v1/datasets and
// /metrics.

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

	// A cache hit still reports the model and the predictions (no run
	// happened, so there is no fresh actual).
	code, _, hdr = postRun(t, ts.URL, "web", "bfs", `{"src": 0}`)
	if code != http.StatusOK || hdr.Get("X-Sage-Cache") != "hit" {
		t.Fatalf("expected cache hit, got %d cache=%q", code, hdr.Get("X-Sage-Cache"))
	}
	if hdr.Get("X-Sage-Cost-Model") == "" || hdr.Get("X-Sage-Cost-Predicted") == "" ||
		hdr.Get("X-Sage-DRAM-Predicted") == "" {
		t.Fatal("cache hit dropped the prediction headers")
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

// TestAdmissionLearnedDRAM: the DRAM gate charges an algorithm its seed
// until it has run on the dataset, then the peak it learned. The budget
// holds a slow run beside bfs's learned peak but not beside its seed, so
// a concurrent bfs is shed before bfs has run on web and admitted after.
func TestAdmissionLearnedDRAM(t *testing.T) {
	dir := t.TempDir()
	path := makeDataset(t, dir, "web", 10, 1)
	g, err := sage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	slowSeed, _ := sage.EstimateDRAMWords("pagerank", g)
	bfsSeed, _ := sage.EstimateDRAMWords("bfs", g)
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Config{
		MaxConcurrent:      8,
		DRAMBudgetWords:    slowSeed + bfsSeed/2,
		ResultCacheEntries: -1,
	})
	if err := s.AddDataset("web", path); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer func() {
		ts.Close()
		_ = s.Close()
	}()
	besideSlowRun := func() (int, map[string]any, http.Header) {
		t.Helper()
		cancel, done := slowRun(t, ts.URL, "web")
		defer func() {
			cancel()
			<-done
			waitFor(t, "budget released", func() bool { return inflight(t, ts.URL) == 0 })
		}()
		waitFor(t, "slow run in flight", func() bool { return inflight(t, ts.URL) == 1 })
		return postRun(t, ts.URL, "web", "bfs", ``)
	}

	code, body, hdr := besideSlowRun()
	if code != http.StatusTooManyRequests {
		t.Fatalf("bfs at its seed beside the slow run: %d %v, want 429", code, body)
	}
	if msg, _ := body["error"].(string); !contains(msg, "dram") || hdr.Get("Retry-After") == "" {
		t.Fatalf("429 does not name the dram gate or lacks Retry-After: %v %v", body, hdr)
	}
	if got := costHeader(t, hdr, "X-Sage-DRAM-Predicted"); got != bfsSeed {
		t.Fatalf("first-sight charge %d, want the seed %d", got, bfsSeed)
	}

	code, body, _ = postRun(t, ts.URL, "web", "bfs", ``) // alone: admitted, and learned from
	if code != http.StatusOK {
		t.Fatalf("solo bfs: %d %v", code, body)
	}
	peak := int64(metric(t, body, "stats", "peak_dram_words"))
	if peak > bfsSeed/2 {
		t.Fatalf("bfs peaked at %d words, over half its seed %d: the budget no longer separates them", peak, bfsSeed)
	}

	code, body, hdr = besideSlowRun()
	if code != http.StatusOK {
		t.Fatalf("bfs at its learned peak beside the slow run: %d %v, want 200", code, body)
	}
	if got := costHeader(t, hdr, "X-Sage-DRAM-Predicted"); got != peak {
		t.Fatalf("learned charge %d, want the observed peak %d", got, peak)
	}
}

// TestAdmissionGatesAgree is the differential acceptance check: under
// the default Optane model, the cost gate and the DRAM word gate, both
// charging their first-sight seeds, must make the same accept/shed
// decision on the admission test workloads when both budgets are equally
// (un)constrained.
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
// declared, result cache off): the fourth predictions, learned from three
// runs, must be within 2x of the fourth run's actual cost and within
// 1.25x of its peak DRAM words. The learned estimates then survive an
// update batch, a compaction and an eviction of the dataset, are listed
// under /metrics cost_estimates and dram_estimates, and a fresh server
// over the same file predicts the seeds again.
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
	// One miss: its predicted and actual cost, its predicted DRAM words
	// and its measured peak.
	type sample struct{ pred, act, words, peak int64 }
	run := func(base, dataset string, a sage.Algorithm) sample {
		t.Helper()
		code, body, hdr := postRun(t, base, dataset, a.Name, args(a))
		if code != http.StatusOK || hdr.Get("X-Sage-Cache") != "miss" {
			t.Fatalf("%s: %d cache=%q %v", a.Name, code, hdr.Get("X-Sage-Cache"), body)
		}
		return sample{
			costHeader(t, hdr, "X-Sage-Cost-Predicted"), costHeader(t, hdr, "X-Sage-Cost-Actual"),
			costHeader(t, hdr, "X-Sage-DRAM-Predicted"), int64(metric(t, body, "stats", "peak_dram_words")),
		}
	}
	estimates := func(base string) (cost, dram map[string]any) {
		t.Helper()
		_, m := getJSON(t, base+"/metrics")
		return m["cost_estimates"].(map[string]any), m["dram_estimates"].(map[string]any)
	}

	algos := sage.Algorithms()
	for _, a := range algos {
		var s [4]sample
		for i := range s {
			s[i] = run(ts.URL, "web", a)
		}
		t.Logf("%-14s predicted/actual cost: seed %6.2f, after three runs %6.2f; DRAM words: seed %5.2f, after three runs %5.2f",
			a.Name, float64(s[0].pred)/float64(s[0].act), float64(s[3].pred)/float64(s[3].act),
			float64(s[0].words)/float64(s[0].peak), float64(s[3].words)/float64(s[3].peak))
		if s[3].pred > 2*s[3].act || s[3].act > 2*s[3].pred {
			t.Errorf("%s: learned prediction %d not within 2x of actual %d", a.Name, s[3].pred, s[3].act)
		}
		if w, p := float64(s[3].words), float64(s[3].peak); w > 1.25*p || p > 1.25*w {
			t.Errorf("%s: learned DRAM charge %d not within 1.25x of the peak %d", a.Name, s[3].words, s[3].peak)
		}
	}

	costs, drams := estimates(ts.URL)
	for what, learned := range map[string]map[string]any{"cost_estimates": costs, "dram_estimates": drams} {
		web := learned["web"].(map[string]any)
		if len(web) != len(algos) {
			t.Fatalf("%s lists %d algorithms for web, want %d: %v", what, len(web), len(algos), web)
		}
		if road := learned["road"].(map[string]any); len(road) != 0 {
			t.Fatalf("%s lists algorithms that never ran on road: %v", what, road)
		}
		for name, v := range web {
			if f, ok := v.(float64); !ok || f <= 0 {
				t.Fatalf("%s web/%s = %v, want a positive quantity per (n + m)", what, name, v)
			}
		}
	}

	// Neither an update batch, nor a compaction, nor an eviction of the
	// mapping forgets what the dataset learned.
	same := func(what string) {
		t.Helper()
		cost, dram := estimates(ts.URL)
		if fmt.Sprint(cost["web"], dram["web"]) != fmt.Sprint(costs["web"], drams["web"]) {
			t.Fatalf("estimates changed by %s:\n%v %v\n%v %v", what, costs["web"], drams["web"], cost["web"], dram["web"])
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

	// A restarted server starts from the seeds: every algorithm predicts
	// one edge pass of the (compacted) file and is charged its DRAM seed.
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
		words, err := sage.EstimateDRAMWords(a.Name, g)
		if err != nil {
			t.Fatal(err)
		}
		if s := run(fresh.URL, "web", a); s.pred != seed.Cost || s.words != words {
			t.Errorf("%s: restarted server predicted cost %d and %d DRAM words, want the seeds %d and %d",
				a.Name, s.pred, s.words, seed.Cost, words)
		}
	}
}
