package sage_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sage"
)

// TestConcurrentRunsAggregate drives one engine from many goroutines
// with a mix of algorithms (run under -race in CI): every call is its
// own Run with private counters, and on completion the engine aggregate
// must equal the sum of the per-run stats (max for the DRAM peak).
func TestConcurrentRunsAggregate(t *testing.T) {
	g := sage.GenerateRMAT(11, 8, 3)
	wg := weighted(t, g, 5)
	e := sage.NewEngine(sage.WithMode(sage.AppDirect))

	type result struct {
		stats sage.RunStats
		err   error
	}
	kinds := []func(r *sage.Run) error{
		func(r *sage.Run) error { _, err := r.BFS(context.Background(), g, 0); return err },
		func(r *sage.Run) error { _, err := r.Connectivity(context.Background(), g); return err },
		func(r *sage.Run) error { _, err := r.KCore(context.Background(), g); return err },
		func(r *sage.Run) error { _, _, err := r.PageRank(context.Background(), g, 1e-6, 20); return err },
		func(r *sage.Run) error { _, err := r.WBFS(context.Background(), wg, 1); return err },
		func(r *sage.Run) error { _, err := r.MIS(context.Background(), g); return err },
		func(r *sage.Run) error { _, err := r.TriangleCount(context.Background(), g); return err },
		func(r *sage.Run) error { _, err := r.Coloring(context.Background(), g); return err },
	}
	const perKind = 3
	results := make([]result, perKind*len(kinds))
	var wait sync.WaitGroup
	for i := range results {
		wait.Add(1)
		go func(i int) {
			defer wait.Done()
			r := e.NewRun()
			err := kinds[i%len(kinds)](r)
			results[i] = result{stats: r.Stats(), err: err}
		}(i)
	}
	wait.Wait()

	var sum sage.Stats
	var maxPeak int64
	for i, res := range results {
		if res.err != nil {
			t.Fatalf("run %d: %v", i, res.err)
		}
		sum.NVRAMReads += res.stats.NVRAMReads
		sum.NVRAMWrites += res.stats.NVRAMWrites
		sum.DRAMReads += res.stats.DRAMReads
		sum.DRAMWrites += res.stats.DRAMWrites
		sum.CacheHits += res.stats.CacheHits
		sum.CacheMisses += res.stats.CacheMisses
		sum.PSAMCost += res.stats.PSAMCost
		if res.stats.PeakDRAMWords > maxPeak {
			maxPeak = res.stats.PeakDRAMWords
		}
	}
	agg := e.Stats()
	if agg.NVRAMReads != sum.NVRAMReads || agg.NVRAMWrites != sum.NVRAMWrites ||
		agg.DRAMReads != sum.DRAMReads || agg.DRAMWrites != sum.DRAMWrites ||
		agg.CacheHits != sum.CacheHits || agg.CacheMisses != sum.CacheMisses {
		t.Fatalf("aggregate counters != sum of per-run stats:\n agg %+v\n sum %+v", agg, sum)
	}
	if agg.PSAMCost != sum.PSAMCost {
		t.Fatalf("aggregate cost %d != sum of per-run costs %d", agg.PSAMCost, sum.PSAMCost)
	}
	if agg.PeakDRAMWords != maxPeak {
		t.Fatalf("aggregate peak %d != max per-run peak %d", agg.PeakDRAMWords, maxPeak)
	}
	if agg.NVRAMWrites != 0 {
		t.Fatalf("sage discipline violated under concurrency: %d NVRAM writes", agg.NVRAMWrites)
	}
}

// TestStatsSnapshotDuringRuns pins the contract documented on
// Engine.Stats: the aggregate may be snapshotted at any time, including
// while runs are in flight — the serving layer's /metrics endpoint does
// exactly that. Under -race this proves the absence of data races; the
// assertions prove the promised monotonicity (no merge ever observed
// half-applied as a decrease) and the final consistency with the
// completed runs.
func TestStatsSnapshotDuringRuns(t *testing.T) {
	g := sage.GenerateRMAT(11, 8, 41)
	e := sage.NewEngine(sage.WithMode(sage.AppDirect))

	stop := make(chan struct{})
	snapErr := make(chan error, 1)
	go func() {
		defer close(snapErr)
		var prev sage.Stats
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := e.Stats()
			if s.PSAMCost < prev.PSAMCost || s.NVRAMReads < prev.NVRAMReads ||
				s.DRAMWrites < prev.DRAMWrites || s.PeakDRAMWords < prev.PeakDRAMWords {
				snapErr <- fmt.Errorf("aggregate went backwards: %+v then %+v", prev, s)
				return
			}
			prev = s
		}
	}()

	var wait sync.WaitGroup
	const runs = 12
	for i := 0; i < runs; i++ {
		wait.Add(1)
		go func(i int) {
			defer wait.Done()
			switch i % 3 {
			case 0:
				sage.Must(e.BFS(bg, g, 0))
			case 1:
				sage.Must(e.Connectivity(bg, g))
			case 2:
				sage.Must(e.KCore(bg, g))
			}
		}(i)
	}
	wait.Wait()
	close(stop)
	if err, ok := <-snapErr; ok && err != nil {
		t.Fatal(err)
	}
	if got := e.Stats(); got.NVRAMReads == 0 || got.PSAMCost == 0 {
		t.Fatalf("aggregate after %d runs: %+v", runs, got)
	}
}

// TestConcurrentEnginesIsolated runs two engines concurrently and checks
// neither sees the other's accounting.
func TestConcurrentEnginesIsolated(t *testing.T) {
	g := sage.GenerateRMAT(10, 8, 9)
	e1 := sage.NewEngine(sage.WithMode(sage.AppDirect))
	e2 := sage.NewEngine(sage.WithMode(sage.DRAM))
	var wait sync.WaitGroup
	for i := 0; i < 4; i++ {
		wait.Add(2)
		go func() { defer wait.Done(); sage.Must(e1.Connectivity(bg, g)) }()
		go func() { defer wait.Done(); sage.Must(e2.Connectivity(bg, g)) }()
	}
	wait.Wait()
	if e1.Stats().DRAMReads == 0 || e2.Stats().DRAMReads == 0 {
		t.Fatal("engines recorded nothing")
	}
	if e2.Stats().NVRAMReads != 0 {
		t.Fatal("DRAM-mode engine charged NVRAM reads (cross-engine leak)")
	}
}

// TestCancellationPreCancelled: an already-cancelled context stops
// Connectivity at its first checkpoint and surfaces ctx.Err().
func TestCancellationPreCancelled(t *testing.T) {
	g := sage.GenerateRMAT(11, 8, 13)
	e := sage.NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	labels, err := e.Connectivity(ctx, g)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if labels != nil {
		t.Fatal("cancelled run returned a result")
	}
	// The engine remains usable after a cancelled run.
	if got := sage.Must(e.Connectivity(bg, g)); len(got) != int(g.NumVertices()) {
		t.Fatal("engine broken after cancellation")
	}
}

// TestCancellationMidRun cancels PageRank while it iterates (an
// effectively unreachable convergence threshold) and checks the run
// stops with ctx.Err() instead of running its million-iteration cap.
func TestCancellationMidRun(t *testing.T) {
	g := sage.GenerateRMAT(12, 16, 17)
	e := sage.NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	ranks, iters, err := e.PageRank(ctx, g, 1e-300, 1<<30)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v (iters=%d), want context.Canceled", err, iters)
	}
	if ranks != nil {
		t.Fatal("cancelled PageRank returned ranks")
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	// Partial work of the cancelled run still reaches the aggregate.
	if e.Stats().NVRAMReads == 0 {
		t.Fatal("cancelled run merged no partial accounting")
	}
}

// pollCancelCtx is a context that cancels itself on its n-th Err poll:
// a deterministic "cancelled mid-run" for loops that poll per block.
type pollCancelCtx struct {
	context.Context
	cancel context.CancelFunc
	left   atomic.Int64
}

func newPollCancelCtx(polls int64) *pollCancelCtx {
	c := &pollCancelCtx{}
	c.Context, c.cancel = context.WithCancel(context.Background())
	c.left.Store(polls)
	return c
}

func (c *pollCancelCtx) Err() error {
	if c.left.Add(-1) == 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestCancellationMidTriangleCount: the oriented sweep polls the context
// once per scheduling block, so a context cancelled a few blocks in stops
// the run there — the context's error, no result, and a fraction of the
// full run's reads — instead of finishing the O(m^{3/2}) sweep first.
func TestCancellationMidTriangleCount(t *testing.T) {
	g := sage.GenerateRMAT(16, 16, 23)
	e := sage.NewEngine()
	full := e.NewRun()
	if _, err := full.TriangleCount(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	ctx := newPollCancelCtx(8)
	defer ctx.cancel()
	r := e.NewRun()
	res, err := r.TriangleCount(ctx, g)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled run returned %+v", *res)
	}
	if got, all := r.Stats().NVRAMReads, full.Stats().NVRAMReads; got > all/2 {
		t.Fatalf("read %d NVRAM words after being cancelled in the eighth block; the full run reads %d", got, all)
	}
}

// TestCancellationDeadline covers the context.DeadlineExceeded path.
func TestCancellationDeadline(t *testing.T) {
	g := sage.GenerateRMAT(12, 16, 19)
	e := sage.NewEngine()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, err := e.PageRank(ctx, g, 1e-300, 1<<30)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestWithCacheOrderIndependent: WithCache must compose with WithMode in
// either order (the default cache is resolved after all options apply).
func TestWithCacheOrderIndependent(t *testing.T) {
	const words = 1 << 12
	a := sage.NewEngine(sage.WithMode(sage.MemoryMode), sage.WithCache(words))
	b := sage.NewEngine(sage.WithCache(words), sage.WithMode(sage.MemoryMode))
	if a.CacheWords() != words || b.CacheWords() != words {
		t.Fatalf("cache capacity depends on option order: %d vs %d (want %d)",
			a.CacheWords(), b.CacheWords(), words)
	}
	// Behavioural check: identical deterministic runs, identical stats.
	old := sage.Workers()
	defer sage.SetWorkers(old)
	sage.SetWorkers(1)
	g := sage.GenerateRMAT(10, 8, 23)
	sa := mustStats(t, a, g)
	sb := mustStats(t, b, g)
	if sa != sb {
		t.Fatalf("option order changed behaviour:\n a %+v\n b %+v", sa, sb)
	}
	if sa.CacheMisses == 0 {
		t.Fatal("MemoryMode run never missed")
	}
	// MemoryMode without WithCache still gets the default cache.
	c := sage.NewEngine(sage.WithMode(sage.MemoryMode))
	if c.CacheWords() != 1<<22 {
		t.Fatalf("default cache = %d words, want %d", c.CacheWords(), 1<<22)
	}
}

func mustStats(t *testing.T, e *sage.Engine, g *sage.Graph) sage.Stats {
	t.Helper()
	sage.Must(e.Connectivity(bg, g))
	return e.Stats()
}

// TestRunSessionAccumulates: a Run reused for several calls reports the
// session total, and the engine aggregate matches it.
func TestRunSessionAccumulates(t *testing.T) {
	g := sage.GenerateRMAT(10, 8, 29)
	e := sage.NewEngine()
	r := e.NewRun()
	if _, err := r.BFS(context.Background(), g, 0); err != nil {
		t.Fatal(err)
	}
	afterBFS := r.Stats()
	if _, err := r.KCore(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	afterBoth := r.Stats()
	if afterBoth.NVRAMReads <= afterBFS.NVRAMReads {
		t.Fatal("session stats did not accumulate across calls")
	}
	agg := e.Stats()
	if agg.NVRAMReads != afterBoth.NVRAMReads || agg.DRAMWrites != afterBoth.DRAMWrites {
		t.Fatalf("aggregate %+v != session total %+v", agg, afterBoth)
	}
}

// TestAlgorithmRegistry exercises the enumerable registry surface: every
// entry is invokable by name through one engine, set cover demands its
// instance parameter, and unknown names report the known set.
func TestAlgorithmRegistry(t *testing.T) {
	list := sage.Algorithms()
	if len(list) < 24 {
		t.Fatalf("registry lists %d algorithms, want >= 24", len(list))
	}
	g := sage.GenerateRMAT(9, 8, 31)
	wg := weighted(t, g, 7)
	// A tiny bipartite set-cover instance: sets {0,1} cover elements
	// {2,3,4} (vertices >= numSets are elements).
	sc := sage.FromEdges(5, []sage.Edge{{U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 3}, {U: 1, V: 4}})
	e := sage.NewEngine()
	for _, a := range list {
		input := g
		args := sage.AlgoArgs{}
		if a.Weighted {
			input = wg
		}
		if a.SetCover {
			input = sc
			args.NumSets = 2
		}
		res, err := e.RunAlgorithm(context.Background(), a.Name, input, args)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if res.Summary == "" || res.Value == nil {
			t.Fatalf("%s: empty result", a.Name)
		}
		if res.Stats.PSAMCost == 0 {
			t.Fatalf("%s: no per-run accounting", a.Name)
		}
	}
	if _, err := e.RunAlgorithm(context.Background(), "setcover", sc, sage.AlgoArgs{}); err == nil {
		t.Fatal("setcover without NumSets should error")
	}
	_, err := e.RunAlgorithm(context.Background(), "nope", g, sage.AlgoArgs{})
	if err == nil || !strings.Contains(err.Error(), "bfs") {
		t.Fatalf("unknown-algorithm error should list registry names, got: %v", err)
	}
	if _, err := e.RunAlgorithm(context.Background(), "bfs", g, sage.AlgoArgs{Src: g.NumVertices()}); err == nil {
		t.Fatal("out-of-range source should error")
	}
	if _, err := e.RunAlgorithm(context.Background(), "kclique", g, sage.AlgoArgs{K: 2}); err == nil {
		t.Fatal("kclique with k < 3 should error, not panic")
	}
}
