package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestPoolWorkerIndexContract checks that the persistent pool keeps the
// [0, Workers()) worker-index contract across many back-to-back loops
// (the per-worker PSAM counter shards and decode scratch rely on it).
func TestPoolWorkerIndexContract(t *testing.T) {
	defer SetWorkers(Workers())
	SetWorkers(4)
	for round := 0; round < 200; round++ {
		var covered [64]atomic.Int64
		var bad atomic.Int64
		ForBlocks(64, 1, func(w, lo, hi int) {
			if w < 0 || w >= 4 {
				bad.Add(1)
			}
			for i := lo; i < hi; i++ {
				covered[i].Add(1)
			}
		})
		if bad.Load() != 0 {
			t.Fatalf("round %d: worker index out of [0, 4)", round)
		}
		for i := range covered {
			if covered[i].Load() != 1 {
				t.Fatalf("round %d: block %d executed %d times", round, i, covered[i].Load())
			}
		}
	}
}

// TestPoolResize grows and shrinks the worker count between loops.
func TestPoolResize(t *testing.T) {
	defer SetWorkers(Workers())
	for _, p := range []int{2, 6, 3, 8, 1, 5} {
		SetWorkers(p)
		var sum atomic.Int64
		var badW atomic.Int64
		ForBlocks(1000, 16, func(w, lo, hi int) {
			if w < 0 || w >= p {
				badW.Add(1)
			}
			var local int64
			for i := lo; i < hi; i++ {
				local += int64(i)
			}
			sum.Add(local)
		})
		if badW.Load() != 0 {
			t.Fatalf("p=%d: worker index out of range", p)
		}
		if want := int64(999 * 1000 / 2); sum.Load() != want {
			t.Fatalf("p=%d: sum %d, want %d", p, sum.Load(), want)
		}
	}
}

// TestNestedLoops runs parallel loops from inside pool workers — the
// pattern PageRank's high-degree aggregation uses. The inner loops must
// complete (transient-goroutine fallback) without deadlocking the pool.
func TestNestedLoops(t *testing.T) {
	defer SetWorkers(Workers())
	SetWorkers(4)
	var total atomic.Int64
	ForBlocks(16, 1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			For(100, 10, func(j int) {
				total.Add(1)
			})
		}
	})
	if total.Load() != 1600 {
		t.Fatalf("nested loops executed %d iterations, want 1600", total.Load())
	}
}

// TestConcurrentTopLevelLoops issues loops from several user goroutines
// at once: one wins the pool, the rest take the fallback path, and every
// block of every loop must still run exactly once.
func TestConcurrentTopLevelLoops(t *testing.T) {
	defer SetWorkers(Workers())
	SetWorkers(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				var covered [32]atomic.Int64
				ForBlocks(32, 1, func(_, lo, hi int) {
					for i := lo; i < hi; i++ {
						covered[i].Add(1)
					}
				})
				for i := range covered {
					if covered[i].Load() != 1 {
						t.Errorf("block %d executed %d times", i, covered[i].Load())
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestDoRecursive exercises deep recursive forks (the sort pattern):
// the outermost Do holds the pool, inner forks must still progress.
func TestDoRecursive(t *testing.T) {
	defer SetWorkers(Workers())
	SetWorkers(4)
	var count atomic.Int64
	var rec func(depth int)
	rec = func(depth int) {
		if depth == 0 {
			count.Add(1)
			return
		}
		Do(func() { rec(depth - 1) }, func() { rec(depth - 1) })
	}
	rec(10)
	if count.Load() != 1024 {
		t.Fatalf("recursive Do reached %d leaves, want 1024", count.Load())
	}
}

// TestForBlocksAlignedToGrain pins the block shape that lets a caller own
// whole words of a bitmap per block: every block starts at a multiple of
// the grain and ends at the next multiple or at n. It covers the serial
// path, the pool path, the nested path (a loop inside a pool worker) and
// the transient path a second concurrent top-level loop takes.
func TestForBlocksAlignedToGrain(t *testing.T) {
	defer SetWorkers(Workers())
	const grain = 256
	check := func(name string, n int) {
		var covered atomic.Int64
		ForBlocks(n, grain, func(_, lo, hi int) {
			if lo%grain != 0 || hi != min(lo+grain, n) {
				t.Errorf("%s: block [%d, %d) of n=%d is not grain-aligned", name, lo, hi, n)
			}
			covered.Add(int64(hi - lo))
		})
		if covered.Load() != int64(n) {
			t.Errorf("%s: blocks covered %d of %d", name, covered.Load(), n)
		}
	}
	for _, p := range []int{1, 2, 4} {
		SetWorkers(p)
		for _, n := range []int{1, 255, 256, 257, 4097, 20000} {
			check("top-level", n)
		}
		ForBlocks(8, 1, func(_, _, _ int) { check("nested", 4097) })
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 20; round++ {
					check("concurrent", 20000)
				}
			}()
		}
		wg.Wait()
	}
}
