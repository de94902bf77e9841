package server_test

// Coverage of the batch-update endpoint and its snapshot/versioning
// semantics: updates change what runs compute (and the result cache can
// never serve a pre-update answer), in-flight runs finish on the snapshot
// they started with, over-budget overlays are shed until compacted, and
// compaction rewrites the stored file atomically.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sage"
	"sage/internal/server"
)

// makeChain persists an n-vertex path graph 0-1-...-(n-1).
func makeChain(t testing.TB, dir, name string, n uint32) string {
	t.Helper()
	path := filepath.Join(dir, name+".sg")
	if err := sage.Create(path, sage.GenerateChain(n)); err != nil {
		t.Fatal(err)
	}
	return path
}

// newChainServer serves one 10-vertex chain as "chain".
func newChainServer(t *testing.T, cfg server.Config) *httptest.Server {
	t.Helper()
	dir := t.TempDir()
	s := server.New(cfg)
	if err := s.AddDataset("chain", makeChain(t, dir, "chain", 10)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		_ = s.Close()
	})
	return ts
}

// postUpdate issues an update request and decodes the response.
func postUpdate(t *testing.T, base, dataset, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(base+"/v1/update/"+dataset, "application/json",
		strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST update: %v", err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST update: decoding: %v", err)
	}
	return resp.StatusCode, out
}

// components runs connectivity and parses the component count out of the
// summary ("N connected components").
func components(t *testing.T, base string) (count string, gen float64, cache string) {
	t.Helper()
	code, run, hdr := postRun(t, base, "chain", "cc", ``)
	if code != http.StatusOK {
		t.Fatalf("cc run: %d %v", code, run)
	}
	summary, _ := run["summary"].(string)
	fields := strings.Fields(summary)
	if len(fields) == 0 {
		t.Fatalf("cc summary %q", summary)
	}
	return fields[0], metric(t, run, "generation"), hdr.Get("X-Sage-Cache")
}

func TestUpdateChangesResults(t *testing.T) {
	ts := newChainServer(t, server.Config{})

	if n, gen, _ := components(t, ts.URL); n != "1" || gen != 1 {
		t.Fatalf("fresh chain: %s components at gen %v", n, gen)
	}

	// Cutting {4,5} splits the chain in two; the run must see it and the
	// pre-update cached result must not be served.
	code, upd := postUpdate(t, ts.URL, "chain", `{"ops": [{"u": 4, "v": 5, "del": true}]}`)
	if code != http.StatusOK {
		t.Fatalf("update: %d %v", code, upd)
	}
	if metric(t, upd, "generation") != 2 || metric(t, upd, "applied") != 1 {
		t.Fatalf("update response: %v", upd)
	}
	if metric(t, upd, "edges") != 16 { // 18 arcs - 2
		t.Fatalf("edges after cut: %v", upd["edges"])
	}
	if n, gen, cache := components(t, ts.URL); n != "2" || gen != 2 || cache != "miss" {
		t.Fatalf("after cut: %s components, gen %v, cache %s", n, gen, cache)
	}
	// The same query repeats from the cache at the new generation.
	if _, _, cache := components(t, ts.URL); cache != "hit" {
		t.Fatal("post-update rerun not cached")
	}

	// Bridging the cut with a new edge {0,9} keeps it one... no: {4,5} is
	// still cut, {0,9} closes the two halves into one cycle-free... 0-..-4
	// and 5-..-9 joined by {9,0}: one component again.
	code, upd = postUpdate(t, ts.URL, "chain", `{"ops": [{"u": 9, "v": 0}]}`)
	if code != http.StatusOK {
		t.Fatalf("insert: %d %v", code, upd)
	}
	if n, gen, _ := components(t, ts.URL); n != "1" || gen != 3 {
		t.Fatalf("after bridge: %s components at gen %v", n, gen)
	}

	// Reverting both ops empties the overlay: back to the base view at a
	// bumped generation.
	code, upd = postUpdate(t, ts.URL, "chain",
		`{"ops": [{"u": 9, "v": 0, "del": true}, {"u": 4, "v": 5}]}`)
	if code != http.StatusOK {
		t.Fatalf("revert: %d %v", code, upd)
	}
	if metric(t, upd, "delta_words") != 0 {
		t.Fatalf("revert left a delta: %v", upd)
	}
	if n, _, _ := components(t, ts.URL); n != "1" {
		t.Fatalf("after revert: %s components", n)
	}

	// The dataset listing reflects the (now empty) overlay state.
	code, ds := getJSON(t, ts.URL+"/v1/datasets")
	if code != http.StatusOK {
		t.Fatal("datasets listing failed")
	}
	entry := ds["datasets"].([]any)[0].(map[string]any)
	if entry["delta_words"] != nil {
		t.Fatalf("empty overlay still listed: %v", entry)
	}
}

// TestNoopBatchKeepsResultCache pins the regression: a batch whose ops
// are all already satisfied — re-inserting a present edge, deleting an
// absent one — must not bump the generation, so cached results survive
// it. Before the fix such a batch republished an identical snapshot and
// invalidated every cached answer for the dataset.
func TestNoopBatchKeepsResultCache(t *testing.T) {
	ts := newChainServer(t, server.Config{})

	// Establish a real overlay, then warm the result cache on it.
	code, upd := postUpdate(t, ts.URL, "chain", `{"ops": [{"u": 0, "v": 5}]}`)
	if code != http.StatusOK {
		t.Fatalf("seed update: %d %v", code, upd)
	}
	if _, gen, _ := components(t, ts.URL); gen != 2 {
		t.Fatalf("seed update: gen %v", gen)
	}
	if _, _, cache := components(t, ts.URL); cache != "hit" {
		t.Fatal("rerun not cached before the no-op batch")
	}

	// All-no-op batch: {0,5} already exists in the overlay, {0,7} does not
	// exist anywhere. It must ack without touching the generation.
	code, upd = postUpdate(t, ts.URL, "chain",
		`{"ops": [{"u": 0, "v": 5}, {"u": 0, "v": 7, "del": true}]}`)
	if code != http.StatusOK {
		t.Fatalf("no-op batch: %d %v", code, upd)
	}
	if metric(t, upd, "generation") != 2 {
		t.Fatalf("no-op batch bumped the generation: %v", upd)
	}
	if _, gen, cache := components(t, ts.URL); gen != 2 || cache != "hit" {
		t.Fatalf("no-op batch invalidated the result cache: gen %v, cache %s", gen, cache)
	}

	// Same contract for ops that are no-ops against the base graph alone
	// (re-inserting a base edge with no overlay involvement at all).
	code, upd = postUpdate(t, ts.URL, "chain", `{"ops": [{"u": 3, "v": 4}]}`)
	if code != http.StatusOK {
		t.Fatalf("base no-op: %d %v", code, upd)
	}
	if metric(t, upd, "generation") != 2 {
		t.Fatalf("base no-op bumped the generation: %v", upd)
	}
	if _, _, cache := components(t, ts.URL); cache != "hit" {
		t.Fatal("base no-op invalidated the result cache")
	}
}

func TestUpdateValidation(t *testing.T) {
	ts := newChainServer(t, server.Config{})

	for _, tc := range []struct {
		name, dataset, body string
		want                int
	}{
		{"unknown dataset", "nope", `{"ops": [{"u": 0, "v": 1}]}`, http.StatusNotFound},
		{"malformed json", "chain", `{"ops": [}`, http.StatusBadRequest},
		{"unknown field", "chain", `{"operations": []}`, http.StatusBadRequest},
		{"empty update", "chain", `{}`, http.StatusBadRequest},
		{"trailing garbage", "chain", `{"ops": [{"u": 0, "v": 2}]} {}`, http.StatusBadRequest},
		{"self loop", "chain", `{"ops": [{"u": 3, "v": 3}]}`, http.StatusBadRequest},
		{"out of range", "chain", `{"ops": [{"u": 0, "v": 99}]}`, http.StatusBadRequest},
		{"weight on unweighted", "chain", `{"ops": [{"u": 0, "v": 2, "w": 7}]}`, http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, body := postUpdate(t, ts.URL, tc.dataset, tc.body)
			if code != tc.want {
				t.Fatalf("%s: %d (want %d): %v", tc.name, code, tc.want, body)
			}
		})
	}

	// A rejected batch leaves no trace: the graph still answers at the
	// original generation.
	if n, gen, _ := components(t, ts.URL); n != "1" || gen != 1 {
		t.Fatalf("rejected batches mutated state: %s components at gen %v", n, gen)
	}
}

func TestUpdatePinnedSnapshotSurvivesUpdates(t *testing.T) {
	// A long run pins the snapshot version it started on; updates and a
	// compaction land mid-run; the run must still complete successfully
	// on its pinned (now-retired, file-rewritten-underneath) version.
	ts := newChainServer(t, server.Config{ResultCacheEntries: -1})

	if code, _ := postUpdate(t, ts.URL, "chain", `{"ops": [{"u": 0, "v": 5}]}`); code != http.StatusOK {
		t.Fatal("seed update failed")
	}
	cancel, done := slowRun(t, ts.URL, "chain")
	defer cancel()
	waitFor(t, "slow run to start", func() bool { return inflight(t, ts.URL) >= 1 })

	if code, _ := postUpdate(t, ts.URL, "chain", `{"ops": [{"u": 1, "v": 7}]}`); code != http.StatusOK {
		t.Fatal("mid-run update failed")
	}
	if code, upd := postUpdate(t, ts.URL, "chain", `{"compact": true}`); code != http.StatusOK {
		t.Fatalf("mid-run compact failed: %v", upd)
	}
	// The pinned run is still executing against the retired snapshot.
	if got := inflight(t, ts.URL); got < 1 {
		t.Fatalf("run finished prematurely (inflight %v)", got)
	}
	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled slow run reported success") // context.Canceled expected
	}
	waitFor(t, "run to drain", func() bool { return inflight(t, ts.URL) == 0 })

	// After the dust settles the compacted file serves the merged graph.
	code, run, _ := postRun(t, ts.URL, "chain", "bfs", `{"src": 0}`)
	if code != http.StatusOK {
		t.Fatalf("post-compact run: %d %v", code, run)
	}
}

func TestUpdateDeltaBudgetAndCompaction(t *testing.T) {
	ts := newChainServer(t, server.Config{DeltaBudgetWords: 16, ResultCacheEntries: -1})

	// One op fits the 16-word budget (4 header + 2 ids per endpoint).
	if code, _ := postUpdate(t, ts.URL, "chain", `{"ops": [{"u": 0, "v": 2}]}`); code != http.StatusOK {
		t.Fatal("in-budget update rejected")
	}
	// Growing the overlay past the budget is shed with 507.
	code, body := postUpdate(t, ts.URL, "chain",
		`{"ops": [{"u": 0, "v": 3}, {"u": 0, "v": 4}, {"u": 0, "v": 6}]}`)
	if code != http.StatusInsufficientStorage {
		t.Fatalf("over-budget update: %d %v", code, body)
	}
	_, m := getJSON(t, ts.URL+"/metrics")
	if metric(t, m, "updates", "rejected_delta_budget") != 1 {
		t.Fatalf("rejection not counted: %v", m["updates"])
	}

	// The same batch with compact folds everything into the file instead.
	code, upd := postUpdate(t, ts.URL, "chain",
		`{"ops": [{"u": 0, "v": 3}, {"u": 0, "v": 4}, {"u": 0, "v": 6}], "compact": true}`)
	if code != http.StatusOK {
		t.Fatalf("compacting update: %d %v", code, upd)
	}
	if metric(t, upd, "delta_words") != 0 || upd["compacted"] != true {
		t.Fatalf("compact response: %v", upd)
	}
	if metric(t, upd, "edges") != 18+8 { // chain's 18 arcs + 4 inserted edges
		t.Fatalf("edges after compact: %v", upd["edges"])
	}

	// The compacted state survives a full server restart from the file.
	code, run, _ := postRun(t, ts.URL, "chain", "bfs", `{"src": 0}`)
	if code != http.StatusOK {
		t.Fatal("post-compact run failed")
	}
	if v, ok := run["value"].([]any); !ok || len(v) != 10 {
		t.Fatalf("post-compact bfs value: %v", run["value"])
	}
	_, m = getJSON(t, ts.URL+"/metrics")
	if metric(t, m, "updates", "compactions") != 1 || metric(t, m, "updates", "delta_words") != 0 {
		t.Fatalf("post-compact metrics: %v", m["updates"])
	}
}

func TestUpdateConcurrentWithRuns(t *testing.T) {
	// Hammer runs and updates concurrently (exercised under -race in CI):
	// every run must succeed against some consistent snapshot.
	ts := newChainServer(t, server.Config{MaxConcurrent: 4})

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				code, body, _ := postRun(t, ts.URL, "chain", "cc", ``)
				if code != http.StatusOK && code != http.StatusTooManyRequests {
					t.Errorf("run: %d %v", code, body)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		ops := []string{
			`{"ops": [{"u": 2, "v": 7}]}`,
			`{"ops": [{"u": 2, "v": 7, "del": true}]}`,
			`{"ops": [{"u": 1, "v": 8}]}`,
			`{"compact": true}`,
		}
		for i := 0; i < 12; i++ {
			if code, body := postUpdate(t, ts.URL, "chain", ops[i%len(ops)]); code != http.StatusOK {
				t.Errorf("update %d: %d %v", i, code, body)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
}
