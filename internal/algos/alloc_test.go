//go:build !race

// The race detector's instrumentation allocates, so these counts only hold
// without it.

package algos

import (
	"runtime"
	"testing"

	"sage/internal/gen"
	"sage/internal/parallel"
)

// heapDelta runs f once to warm the pools that outlive a run, then reports
// the bytes and objects a second run allocates.
func heapDelta(f func()) (bytes, mallocs uint64) {
	f()
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc, b.Mallocs - a.Mallocs
}

// TestRoundStateAllocatedOncePerRun pins that the iterative algorithms
// allocate their round state once per run, not once per round, at one
// worker on RMAT-12.
func TestRoundStateAllocatedOncePerRun(t *testing.T) {
	defer parallel.SetWorkers(parallel.Workers())
	parallel.SetWorkers(1)
	g := gen.RMAT(12, 16, 1)
	n := uint64(g.NumVertices())
	o := Defaults()

	// PageRank: 35 more iterations cost less than one n-word array.
	var iters5, iters40 int
	b5, _ := heapDelta(func() { _, iters5 = PageRank(g, o, 1e-300, 5) })
	b40, _ := heapDelta(func() { _, iters40 = PageRank(g, o, 1e-300, 40) })
	if iters5 != 5 || iters40 != 40 {
		t.Fatalf("PageRank ran %d and %d iterations, want 5 and 40", iters5, iters40)
	}
	if b40 > b5+8*n {
		t.Errorf("PageRank allocates per iteration: %d B at 5 iterations, %d B at 40 (n = %d)", b5, b40, n)
	}

	// Coloring: no per-vertex palette.
	if _, m := heapDelta(func() { Coloring(g, o) }); m >= n/16 {
		t.Errorf("Coloring made %d heap objects, want fewer than n/16 = %d", m, n/16)
	}

	// wBFS and MIS: no more than before their round buffers were reused
	// (the byte counts they allocated then).
	wg := gen.AddUniformWeights(g, 1)
	for _, c := range []struct {
		name  string
		run   func()
		limit uint64
	}{
		{"WBFS", func() { WBFS(wg, o, 0) }, 467808},
		{"MIS", func() { MIS(g, o) }, 165496},
	} {
		if b, _ := heapDelta(c.run); b > c.limit {
			t.Errorf("%s allocated %d B, more than the %d B it allocated with per-round buffers", c.name, b, c.limit)
		}
	}
}
