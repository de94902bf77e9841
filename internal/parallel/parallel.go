// Package parallel provides the fork-join substrate used by every other
// package in this repository. It is the Go analogue of the binary-forking
// (T-RAM) model that the Sage paper assumes (§3.1): a fixed pool of P
// workers executes loop iterations in dynamically scheduled, grain-sized
// blocks, which gives the same asymptotic guarantees as a work-stealing
// scheduler for the data-parallel loops used by the algorithms.
//
// All primitives are deterministic with respect to their results (though
// not with respect to scheduling), allocate O(P) control state, and expose
// the worker index so that callers can maintain per-worker counters and
// scratch without atomic contention.
//
// Loops are executed by a lazily-started persistent worker pool: the
// workers park on per-worker channels between loops and are handed a work
// descriptor (an atomic block counter) per top-level call, so the
// thousands of small rounds a frontier algorithm launches do not pay a
// goroutine spawn per loop. The submitting goroutine participates as
// worker 0. Nested or concurrent loops (the pool is busy) fall back to
// transient goroutines with the same [0, Workers()) index contract.
//
// A worker id is unique within one loop only: two loops running at once,
// whether issued from different goroutines or nested inside another
// loop's body, hand out the same ids. So per-worker state (the PSAM
// counter shards, traversal scratch) must belong to one run — each Run
// gets its own, which is what lets a server run requests concurrently —
// and must not be touched from a nested loop. That is why PageRank's
// high-degree aggregation reduces into a local scratch instead of the
// calling worker's.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxWorkers is the hard upper bound on the worker pool size, used to size
// statically sharded data structures such as cost-model counters.
const MaxWorkers = 256

var numWorkers atomic.Int32

func init() {
	n := runtime.GOMAXPROCS(0)
	if n > MaxWorkers {
		n = MaxWorkers
	}
	numWorkers.Store(int32(n))
}

// SetWorkers sets the number of workers used by subsequent parallel
// operations. It is used by the scalability experiments (Figure 6) to sweep
// T1..Tp. Values are clamped to [1, MaxWorkers].
func SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	if n > MaxWorkers {
		n = MaxWorkers
	}
	numWorkers.Store(int32(n))
}

// Workers reports the current worker pool size.
func Workers() int { return int(numWorkers.Load()) }

// DefaultGrain is the default number of loop iterations executed as one
// sequential unit. It balances scheduling overhead against load balance.
const DefaultGrain = 1024

// ceilDiv returns ceil(a/b) for positive b.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// loopDesc describes one parallel loop to the persistent workers: blocks
// are claimed from the atomic counter until exhausted. Wake-up is a
// chain: the submitter wakes worker 1, and each woken worker forwards the
// wake to its successor only while unclaimed blocks remain — so wake-up
// latency overlaps with useful work, and a loop the submitter drains by
// itself wakes a single worker instead of p-1.
type loopDesc struct {
	next    atomic.Int64
	nBlocks int
	grain   int
	n       int
	body    func(worker, lo, hi int)
	wake    []chan *loopDesc // snapshot of the pool's wake channels
	p       int              // workers [0, p) participate this loop
	wg      sync.WaitGroup   // woken participants (grown along the chain)
}

// run drains blocks as the given worker.
//
//sage:hotpath
func (d *loopDesc) run(worker int) {
	for {
		b := int(d.next.Add(1)) - 1
		if b >= d.nBlocks {
			return
		}
		lo := b * d.grain
		hi := min(lo+d.grain, d.n)
		d.body(worker, lo, hi)
	}
}

// workerPool is the lazily-started persistent pool. Worker w (1-based;
// the submitter is worker 0) parks on wake[w-1] between loops. mu is held
// for the duration of one top-level loop; nested and concurrent loops
// fail the TryLock and fall back to transient goroutines. The descriptor
// is owned by the pool and reused, so a loop launch allocates nothing.
type workerPool struct {
	mu   sync.Mutex
	wake []chan *loopDesc
	desc loopDesc
}

var workers workerPool

// ensure starts persistent workers until k are available. Caller holds mu.
func (p *workerPool) ensure(k int) {
	for len(p.wake) < k {
		ch := make(chan *loopDesc, 1)
		p.wake = append(p.wake, ch)
		id := len(p.wake) // worker ids are 1-based; the submitter is 0
		go func() {
			for d := range ch {
				if id+1 < d.p && int(d.next.Load()) < d.nBlocks {
					// Forward the wake before working. Each channel gets
					// at most one send per loop, so this never blocks;
					// the Add happens while the counter is still held
					// above zero by this worker's pending Done.
					d.wg.Add(1)
					d.wake[id] <- d
				}
				d.run(id)
				d.wg.Done()
			}
		}()
	}
}

// ForBlocks runs body(worker, lo, hi) over disjoint half-open blocks
// [lo, hi) covering [0, n), each of size at most grain. Blocks are claimed
// dynamically by an atomic counter so skewed blocks load-balance. If grain
// is <= 0 the DefaultGrain is used. The worker argument is in [0, Workers())
// and is stable for the duration of one body call, allowing per-worker
// accumulation.
func ForBlocks(n, grain int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = DefaultGrain
	}
	p := Workers()
	nBlocks := ceilDiv(n, grain)
	if p == 1 || nBlocks == 1 {
		for b := 0; b < nBlocks; b++ {
			lo := b * grain
			hi := min(lo+grain, n)
			body(0, lo, hi)
		}
		return
	}
	if p > nBlocks {
		p = nBlocks
	}
	if workers.mu.TryLock() {
		// Top-level loop: start the wake chain and participate as
		// worker 0. All prior participants finished before the pool was
		// re-locked, so reusing the descriptor cannot race.
		workers.ensure(p - 1)
		d := &workers.desc
		d.next.Store(0)
		d.nBlocks, d.grain, d.n, d.body = nBlocks, grain, n, body
		d.wake, d.p = workers.wake, p
		d.wg.Add(1) // the first woken worker
		workers.wake[0] <- d
		d.run(0)
		d.wg.Wait()
		d.body = nil // release the closure
		workers.mu.Unlock()
		return
	}
	// Nested (or concurrent) loop: the pool's workers may be the very
	// callers awaiting this loop, so spawn transient goroutines instead of
	// queueing behind them.
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				b := int(next.Add(1)) - 1
				if b >= nBlocks {
					return
				}
				lo := b * grain
				hi := min(lo+grain, n)
				body(worker, lo, hi)
			}
		}(w)
	}
	wg.Wait()
}

// For runs body(i) for every i in [0, n) in parallel with the given grain.
func For(n, grain int, body func(i int)) {
	ForBlocks(n, grain, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForWorker runs body(worker, i) for every i in [0, n) in parallel,
// exposing the executing worker's index.
func ForWorker(n, grain int, body func(worker, i int)) {
	ForBlocks(n, grain, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			body(w, i)
		}
	})
}

// Do runs the given thunks and waits for all of them. It is the
// binary-fork analogue for a small constant number of tasks, executed on
// the persistent pool when it is free (recursive forks, whose callers
// occupy the pool, spawn transient goroutines as before). Every thunk
// gets its own executor, so thunks may synchronize with each other —
// except when Workers() is 1, where they run serially (as they always
// have).
func Do(thunks ...func()) {
	if len(thunks) == 0 {
		return
	}
	if len(thunks) == 1 || Workers() == 1 {
		for _, t := range thunks {
			t()
		}
		return
	}
	if len(thunks) <= Workers() {
		// One block per thunk and at least as many participants as
		// blocks: each thunk gets a dedicated executor.
		ForBlocks(len(thunks), 1, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				thunks[i]()
			}
		})
		return
	}
	// More thunks than workers: spawn one goroutine per thunk so that
	// mutually-synchronizing thunks cannot deadlock behind a shared
	// executor.
	var wg sync.WaitGroup
	wg.Add(len(thunks) - 1)
	for _, t := range thunks[1:] {
		go func(f func()) {
			defer wg.Done()
			f()
		}(t)
	}
	thunks[0]()
	wg.Wait()
}
