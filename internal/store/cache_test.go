package store_test

import (
	"path/filepath"
	"sync"
	"testing"

	"sage/internal/graph"
	"sage/internal/store"
)

// writeGraph persists a small CSR graph and returns its path and size.
func writeGraph(t *testing.T, dir, name string, n uint32) (string, int64) {
	t.Helper()
	edges := make([]graph.Edge, 0, n)
	for v := uint32(0); v+1 < n; v++ {
		edges = append(edges, graph.Edge{U: v, V: v + 1})
	}
	g := graph.FromEdges(n, edges, graph.BuildOpts{Symmetrize: true})
	path := filepath.Join(dir, name+".sg")
	if err := store.Create(nil, path, store.NewDataset(g, nil), store.FormatBinary); err != nil {
		t.Fatal(err)
	}
	return path, g.SizeWords()
}

func TestCacheHitSharesDataset(t *testing.T) {
	dir := t.TempDir()
	path, _ := writeGraph(t, dir, "a", 64)
	c := store.NewCache(0)
	defer c.Clear()

	h1, err := c.Acquire(path, store.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := c.Acquire(path, store.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if h1.Dataset() != h2.Dataset() {
		t.Fatal("second acquisition opened a second dataset")
	}
	info := c.Info()
	if info.Open != 1 || info.Hits != 1 || info.Misses != 1 {
		t.Fatalf("info after hit: %+v", info)
	}
	h1.Release()
	h2.Release()
}

func TestCacheBudgetEvictsIdleLRU(t *testing.T) {
	dir := t.TempDir()
	pathA, wordsA := writeGraph(t, dir, "a", 64)
	pathB, _ := writeGraph(t, dir, "b", 64)
	// Budget fits one graph: opening the second evicts the idle first.
	c := store.NewCache(wordsA + 1)
	defer c.Clear()

	ha, err := c.Acquire(pathA, store.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ha.Release()
	hb, err := c.Acquire(pathB, store.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Release()
	info := c.Info()
	if info.Evictions != 1 || info.Open != 1 {
		t.Fatalf("after over-budget open: %+v", info)
	}

	// Naming the evicted path again reopens it.
	ha2, err := c.Acquire(pathA, store.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ha2.Release()
	if ha2.Dataset().Closed() || ha2.Dataset().Adj().NumVertices() != 64 {
		t.Fatal("reopened dataset unreadable")
	}
}

func TestCacheNeverEvictsReferenced(t *testing.T) {
	dir := t.TempDir()
	pathA, wordsA := writeGraph(t, dir, "a", 64)
	pathB, _ := writeGraph(t, dir, "b", 64)
	c := store.NewCache(wordsA + 1)
	defer c.Clear()

	ha, err := c.Acquire(pathA, store.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hb, err := c.Acquire(pathB, store.OpenOptions{}) // over budget, but A is referenced
	if err != nil {
		t.Fatal(err)
	}
	if ha.Dataset().Closed() {
		t.Fatal("referenced dataset was closed by eviction")
	}
	// A's graph must still be usable while the handle is held.
	if n := ha.Dataset().Adj().NumVertices(); n != 64 {
		t.Fatalf("held dataset corrupted: n=%d", n)
	}
	hb.Release()
	ha.Release() // now idle; the deferred eviction applies
	if info := c.Info(); info.Evictions == 0 {
		t.Fatalf("no eviction after release: %+v", info)
	}
}

func TestCacheEvictAndClear(t *testing.T) {
	dir := t.TempDir()
	path, _ := writeGraph(t, dir, "a", 64)
	c := store.NewCache(0)

	h, err := c.Acquire(path, store.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Evict(path) {
		t.Fatal("evicted a referenced dataset")
	}
	h.Release()
	if !c.Evict(path) {
		t.Fatal("idle dataset not evicted")
	}
	if c.Evict(path) {
		t.Fatal("evicted an absent entry")
	}

	h, err = c.Acquire(path, store.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ds := h.Dataset()
	h.Release()
	if err := c.Clear(); err != nil {
		t.Fatal(err)
	}
	if !ds.Closed() {
		t.Fatal("Clear left an idle dataset open")
	}
}

// TestEdgeListSparseRoundTrip pins that the encoder's compact header
// form — a huge vertex count over few edge lines — reopens through the
// decoder: the headerless plausibility bound must not apply to files
// that declare n explicitly.
func TestEdgeListSparseRoundTrip(t *testing.T) {
	const n = 5_000_000 // far beyond the headerless 4M floor
	g := graph.FromEdges(n, []graph.Edge{{U: 0, V: n - 1}, {U: 1, V: 2}},
		graph.BuildOpts{Symmetrize: true})
	path := filepath.Join(t.TempDir(), "sparse.el")
	if err := store.Create(nil, path, store.NewDataset(g, nil), store.FormatEdgeList); err != nil {
		t.Fatal(err)
	}
	ds, err := store.Open(path, store.OpenOptions{})
	if err != nil {
		t.Fatalf("encoder output unreadable by its own decoder: %v", err)
	}
	defer ds.Close()
	if got := ds.Adj().NumVertices(); got != n {
		t.Fatalf("round trip changed n: %d, want %d", got, n)
	}
	if got := ds.Adj().NumEdges(); got != g.NumEdges() {
		t.Fatalf("round trip changed m: %d, want %d", got, g.NumEdges())
	}
}

// TestCacheConcurrentAcquire hammers one path from many goroutines (run
// under -race in CI): every handle must see the same open dataset, and the refcounting must never close it mid-use.
func TestCacheConcurrentAcquire(t *testing.T) {
	dir := t.TempDir()
	path, _ := writeGraph(t, dir, "a", 256)
	c := store.NewCache(0)
	defer c.Clear()

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				h, err := c.Acquire(path, store.OpenOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				if h.Dataset().Adj().NumVertices() != 256 {
					t.Error("dataset corrupted under concurrency")
				}
				h.Release()
			}
		}()
	}
	wg.Wait()
	if info := c.Info(); info.Open != 1 {
		t.Fatalf("concurrent acquire left %d datasets open", info.Open)
	}
}

// TestCacheInvalidateDefersClose pins the compaction contract: after
// Invalidate, new acquisitions reopen the file while the detached dataset stays open until its last pre-existing
// handle releases.
func TestCacheInvalidateDefersClose(t *testing.T) {
	dir := t.TempDir()
	path, _ := writeGraph(t, dir, "a", 64)
	c := store.NewCache(0)
	defer c.Clear()

	h1, err := c.Acquire(path, store.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	old := h1.Dataset()
	if !c.Invalidate(path) {
		t.Fatal("invalidate found no entry")
	}
	if c.Invalidate(path) {
		t.Fatal("second invalidate found an entry")
	}
	if old.Closed() {
		t.Fatal("invalidate closed a referenced dataset")
	}

	h2, err := c.Acquire(path, store.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Release()
	if h2.Dataset() == old {
		t.Fatal("acquire after invalidate returned the detached dataset")
	}
	if old.Closed() {
		t.Fatal("detached dataset closed while still referenced")
	}
	if old.Adj().NumVertices() != 64 {
		t.Fatal("detached dataset unreadable")
	}
	h1.Release()
	if !old.Closed() {
		t.Fatal("detached dataset not closed by its last release")
	}
}

// TestCacheInvalidateRacesPinning drives invalidations and evictions
// against concurrent acquire/read/release cycles (run under -race in CI):
// a pinned dataset must stay readable until released. The generation
// half of this race lives with the generation's owner, the server's
// dataset record (TestGenerationRacesPinning).
func TestCacheInvalidateRacesPinning(t *testing.T) {
	dir := t.TempDir()
	path, _ := writeGraph(t, dir, "a", 128)
	c := store.NewCache(0)
	defer c.Clear()

	stop := make(chan struct{})
	var updater sync.WaitGroup
	var wg sync.WaitGroup
	updater.Add(1)
	go func() { // the update/compact path
		defer updater.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%5 == 4 {
				c.Invalidate(path)
			} else {
				c.Evict(path)
			}
		}
	}()
	for w := 0; w < 8; w++ { // the request path
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				h, err := c.Acquire(path, store.OpenOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				if h.Dataset().Closed() {
					t.Error("acquired dataset already closed")
				}
				if h.Dataset().Adj().NumVertices() != 128 {
					t.Error("pinned dataset unreadable")
				}
				h2, err := c.Acquire(path, store.OpenOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				if h.Dataset().Closed() || h2.Dataset().Closed() {
					t.Error("dataset closed under a live handle")
				}
				h2.Release()
				h.Release()
			}
		}()
	}
	wg.Wait()
	close(stop)
	updater.Wait()
}
