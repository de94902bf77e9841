package sage

import (
	"context"
	"fmt"
	"sync"

	"sage/internal/algos"
	"sage/internal/costmodel"
	"sage/internal/psam"
	"sage/internal/traverse"
)

// Engine is an immutable, goroutine-safe algorithm configuration: the
// memory mode, cost model, traversal strategy, and seed policy fixed at
// construction. Every algorithm call executes as its own Run — a session
// owning private PSAM counters, a private Memory-Mode cache, and private
// decode scratch — whose totals are merged atomically into the engine's
// aggregate on completion. Concurrent calls on one Engine are therefore
// correct by construction: they share only the immutable configuration
// and the atomic aggregate.
//
// Every algorithm is one context-aware method, declared once (see
// algoMethods) and callable on an Engine or on an explicitly held Run
// when the per-call statistics matter; Must drops the error where the
// context cannot be cancelled:
//
//	parents, err := e.BFS(ctx, g, 0)      // err is ctx.Err() on cancellation
//	parents := sage.Must(e.BFS(ctx, g, 0)) // panics on error
//
//	run := e.NewRun()
//	parents, err := run.BFS(ctx, g, 0)
//	fmt.Println(run.Stats())              // this call's counters alone
type Engine struct {
	algoMethods // e is the engine itself, run is nil: one fresh Run per call

	cfg config
	agg psam.Aggregate
	// pools recycles traversal scratch (*traverse.Pools) across
	// engine-level calls, so a loop of e.BFS keeps its warmed decode
	// buffers and chunk free lists instead of allocating a fresh
	// set per call. Scratch carries no cross-run state once a run's
	// counters are merged, so recycling is safe; explicitly held Runs
	// keep their pools for their lifetime.
	pools sync.Pool
}

// config is the frozen engine configuration.
type config struct {
	mode       Mode
	model      costmodel.Profile
	strategy   Strategy
	seed       uint64
	fb         int
	eps        float64
	cacheWords int64
}

// Option configures an Engine at construction.
type Option func(*config)

// WithMode selects the memory configuration (default AppDirect).
func WithMode(m Mode) Option {
	return func(c *config) { c.mode = m }
}

// WithStrategy selects the sparse traversal implementation (default
// Chunked — the Sage design; Blocked reproduces the GBBS baseline).
func WithStrategy(s Strategy) Option {
	return func(c *config) { c.strategy = s }
}

// WithModel selects the hardware cost profile (default the Optane PSAM
// of §3, CostModelOptane — unit-charged NVRAM reads, writes at ω = 12
// DRAM accesses). The profile is what every run's simulator charges
// under, what prices the Auto traversal strategy's direction choices, and
// what backs the engine's cost predictions (PredictCost, CostOfStats).
// For a sensitivity study, copy a built-in and override its weights:
//
//	m := sage.CostModelOptane()
//	m.NVRAMRead, m.Omega = 3, 4 // the raw device ratios
//	e := sage.NewEngine(sage.WithModel(m))
func WithModel(m CostModel) Option {
	return func(c *config) { c.model = m }
}

// WithCache sets the Memory-Mode cache capacity in simulated words. Each
// Run gets its own cache of this capacity. The capacity is resolved after
// all options apply, so WithCache composes with WithMode in any order;
// MemoryMode without WithCache gets a default 1<<22-word cache.
func WithCache(words int64) Option {
	return func(c *config) { c.cacheWords = words }
}

// WithSeed sets the seed for the randomized algorithms (default 1).
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed }
}

// WithFilterBlockSize sets the graph filter block size FB (default 64;
// must equal the compression block size on compressed inputs, §4.2.1).
func WithFilterBlockSize(fb int) Option {
	return func(c *config) { c.fb = fb }
}

// WithEps sets the approximation parameter for set cover and densest
// subgraph (default 0.05).
func WithEps(eps float64) Option {
	return func(c *config) { c.eps = eps }
}

// NewEngine returns an engine in AppDirect mode with Sage defaults. The
// configuration is frozen here: Options mutate only the construction-time
// config, never a live engine.
func NewEngine(options ...Option) *Engine {
	c := config{
		mode:     AppDirect,
		model:    costmodel.Optane(),
		strategy: Chunked,
		seed:     1,
		fb:       64,
		eps:      0.05,
	}
	for _, o := range options {
		o(&c)
	}
	// Resolve the cache only after every option has applied, so
	// WithMode/WithCache order cannot change the outcome.
	if c.mode == MemoryMode && c.cacheWords == 0 {
		c.cacheWords = 1 << 22 // a default cache; override with WithCache
	}
	e := &Engine{cfg: c}
	e.e = e
	return e
}

// Mode reports the engine's memory configuration.
func (e *Engine) Mode() Mode { return e.cfg.mode }

// Strategy reports the engine's sparse traversal strategy.
func (e *Engine) Strategy() Strategy { return e.cfg.strategy }

// CacheWords reports the per-run Memory-Mode cache capacity (0 outside
// MemoryMode).
func (e *Engine) CacheWords() int64 {
	if e.cfg.mode != MemoryMode {
		return 0
	}
	return e.cfg.cacheWords
}

// Stats is a snapshot of simulated-memory behaviour: for an Engine, the
// aggregate over all completed runs; for a Run, that run alone.
type Stats struct {
	// PSAMCost is the simulated cost under the engine's cost model
	// (§3.1): the counters below priced by it, the same number
	// CostOfStats reports as Cost.
	PSAMCost int64
	// The embedded counters are word counts: NVRAMReads / NVRAMWrites
	// against the large-memory, DRAMReads / DRAMWrites against the
	// small-memory, CacheHits / CacheMisses under Memory Mode (hit words
	// are DRAM reads and counted as both).
	costmodel.Counts
	// PeakDRAMWords is the peak tracked small-memory residency. Engine
	// aggregates take the maximum over runs (concurrent runs each track
	// their own residency); all other fields accumulate by addition.
	PeakDRAMWords int64
}

// String formats the stats compactly.
func (s Stats) String() string {
	return fmt.Sprintf("cost=%d nvram(r=%d w=%d) dram(r=%d w=%d) peakDRAM=%d words",
		s.PSAMCost, s.NVRAMReads, s.NVRAMWrites, s.DRAMReads, s.DRAMWrites, s.PeakDRAMWords)
}

// RunStats is the PSAM accounting of a single Run.
type RunStats = Stats

// statsOf renders counters and a peak under the profile p.
func statsOf(t costmodel.Counts, peak int64, p *costmodel.Profile) Stats {
	return Stats{PSAMCost: p.Cost(t), Counts: t, PeakDRAMWords: peak}
}

// Stats returns the counters aggregated over all completed runs (counter
// fields sum; PeakDRAMWords is the maximum over runs).
//
// Stats is safe to call at any time, including concurrently with runs in
// flight — the monitoring path of a long-lived service polls it while
// request runs execute. A run merges its totals exactly once, at call
// completion (cancelled runs included), and a snapshot sees each run
// either whole or not at all, so every field is monotonically
// non-decreasing between ResetStats calls.
// TestStatsSnapshotDuringRuns pins this contract under -race.
func (e *Engine) Stats() Stats {
	total, peak := e.agg.Totals()
	return statsOf(total, peak, &e.cfg.model)
}

// ResetStats zeroes the aggregate counters. Runs in flight merge their
// totals when they complete, after the reset.
func (e *Engine) ResetStats() { e.agg.Reset() }

// Run is one algorithm session: it owns a private PSAM environment
// (counters, space tracker, Memory-Mode cache) and private traversal
// scratch, and merges its totals into the engine aggregate after each
// call. A Run is NOT goroutine-safe — issue concurrent calls through the
// Engine (one Run per call) or create one Run per goroutine. A Run may be
// reused for several sequential calls; Stats then reports the running
// total of the session.
type Run struct {
	algoMethods // e is the owning engine, run is the Run itself

	opts    *algos.Options
	flushed costmodel.Counts
}

// NewRun opens a session with fresh counters and scratch.
func (e *Engine) NewRun() *Run {
	env := psam.NewEnv(e.cfg.mode)
	env.Profile = e.cfg.model
	if e.cfg.mode == MemoryMode {
		env.WithCache(e.cfg.cacheWords)
	}
	o := algos.Defaults()
	o.Env = env
	o.Seed = e.cfg.seed
	o.FB = e.cfg.fb
	o.Eps = e.cfg.eps
	o.Traverse.Strategy = e.cfg.strategy
	if p, ok := e.pools.Get().(*traverse.Pools); ok {
		o.Traverse.Pools = p
	} else {
		o.Traverse.Pools = traverse.NewPools()
	}
	r := &Run{opts: o}
	r.e, r.run = e, r
	return r
}

// recycle returns a completed run's traversal scratch to the engine for
// reuse. Only engine-level calls use it, after the run's last use.
func (e *Engine) recycle(r *Run) {
	p := r.opts.Traverse.Pools
	r.opts.Traverse.Pools = nil
	if p != nil {
		e.pools.Put(p)
	}
}

// Stats returns this run's counters (all calls issued through the Run so
// far, including a cancelled one's partial work).
func (r *Run) Stats() RunStats {
	env := r.opts.Env
	return statsOf(env.Totals(), env.Space.Peak(), &env.Profile)
}

// begin binds the call's context to the run environment.
func (r *Run) begin(ctx context.Context) *algos.Options {
	r.opts.Env.Ctx = ctx
	return r.opts
}

// finish unbinds the context and merges the counters accumulated since
// the previous flush into the engine aggregate. It runs on every call
// completion, including cancelled ones, so partial work is accounted.
func (r *Run) finish() {
	r.opts.Env.Ctx = nil
	t := r.opts.Env.Totals()
	delta := t
	delta.Sub(r.flushed)
	r.flushed = t
	r.e.agg.Merge(delta, r.opts.Env.Space.Peak())
}

// capture executes one algorithm call on r, converting the cancellation
// unwind back into the context's error.
func capture[T any](r *Run, ctx context.Context, f func(*algos.Options) T) (res T, err error) {
	o := r.begin(ctx)
	defer r.finish()
	defer func() {
		if p := recover(); p != nil {
			c, ok := p.(psam.Cancellation)
			if !ok {
				panic(p)
			}
			var zero T
			res, err = zero, c.Err
		}
	}()
	res = f(o)
	return res, nil
}

// Must returns v, panicking if err is non-nil: the one-line form of a
// call whose context cannot be cancelled.
//
//	parents := sage.Must(e.BFS(context.Background(), g, 0))
func Must[T any](v T, err error) T {
	if err != nil {
		panic(fmt.Sprintf("sage: unexpected error: %v", err))
	}
	return v
}

// algoMethods is the typed algorithm surface: every algorithm is declared
// here once, and Engine and Run both embed it. On an Engine run is nil
// and each call opens a fresh Run, recycling its scratch afterwards; on a
// Run run is that Run, so calls accumulate in its session (Run.Stats).
type algoMethods struct {
	e   *Engine
	run *Run
}

// call executes one algorithm call on m's session (see algoMethods).
func call[T any](m *algoMethods, ctx context.Context, f func(*algos.Options) T) (T, error) {
	r := m.run
	if r == nil {
		r = m.e.NewRun()
		defer m.e.recycle(r)
	}
	return capture(r, ctx, f)
}

// BFS returns a BFS parent array from src (Figure 4; Theorem 4.2).
func (m *algoMethods) BFS(ctx context.Context, g *Graph, src uint32) ([]uint32, error) {
	return call(m, ctx, func(o *algos.Options) []uint32 { return algos.BFS(g.use(), o, src) })
}

// WBFS returns integral-weight shortest-path distances from src via
// bucketing (Julienne-style wBFS).
func (m *algoMethods) WBFS(ctx context.Context, g *Graph, src uint32) ([]uint32, error) {
	return call(m, ctx, func(o *algos.Options) []uint32 { return algos.WBFS(g.use(), o, src) })
}

// BellmanFord returns general-weight shortest-path distances from src.
func (m *algoMethods) BellmanFord(ctx context.Context, g *Graph, src uint32) ([]int64, error) {
	return call(m, ctx, func(o *algos.Options) []int64 { return algos.BellmanFord(g.use(), o, src) })
}

// WidestPath returns single-source widest-path widths from src.
func (m *algoMethods) WidestPath(ctx context.Context, g *Graph, src uint32) ([]int64, error) {
	return call(m, ctx, func(o *algos.Options) []int64 { return algos.WidestPath(g.use(), o, src) })
}

// WidestPathBucketed is the bucketing-based widest-path variant.
func (m *algoMethods) WidestPathBucketed(ctx context.Context, g *Graph, src uint32) ([]int64, error) {
	return call(m, ctx, func(o *algos.Options) []int64 { return algos.WidestPathBucketed(g.use(), o, src) })
}

// Betweenness returns single-source betweenness dependencies from src.
func (m *algoMethods) Betweenness(ctx context.Context, g *Graph, src uint32) ([]float64, error) {
	return call(m, ctx, func(o *algos.Options) []float64 { return algos.Betweenness(g.use(), o, src) })
}

// Spanner returns the edges of an O(k)-spanner (k=0 selects ⌈log₂ n⌉).
func (m *algoMethods) Spanner(ctx context.Context, g *Graph, k int) ([]Edge, error) {
	return call(m, ctx, func(o *algos.Options) []Edge { return algos.Spanner(g.use(), o, k) })
}

// LDD returns a low-diameter decomposition with parameter beta.
func (m *algoMethods) LDD(ctx context.Context, g *Graph, beta float64) (*algos.LDDResult, error) {
	return call(m, ctx, func(o *algos.Options) *algos.LDDResult { return algos.LDD(g.use(), o, beta, o.Seed) })
}

// Connectivity returns connected-component labels.
func (m *algoMethods) Connectivity(ctx context.Context, g *Graph) ([]uint32, error) {
	return call(m, ctx, func(o *algos.Options) []uint32 { return algos.Connectivity(g.use(), o) })
}

// SpanningForest returns the edges of a spanning forest.
func (m *algoMethods) SpanningForest(ctx context.Context, g *Graph) ([]Edge, error) {
	return call(m, ctx, func(o *algos.Options) []Edge { return algos.SpanningForest(g.use(), o) })
}

// Biconnectivity returns the biconnected-component labeling.
func (m *algoMethods) Biconnectivity(ctx context.Context, g *Graph) (*algos.BiconnResult, error) {
	return call(m, ctx, func(o *algos.Options) *algos.BiconnResult { return algos.Biconnectivity(g.use(), o) })
}

// MIS returns a maximal independent set (deterministic in the seed).
func (m *algoMethods) MIS(ctx context.Context, g *Graph) ([]bool, error) {
	return call(m, ctx, func(o *algos.Options) []bool { return algos.MIS(g.use(), o) })
}

// MaximalMatching returns a maximal matching.
func (m *algoMethods) MaximalMatching(ctx context.Context, g *Graph) ([]Edge, error) {
	return call(m, ctx, func(o *algos.Options) []Edge { return algos.MaximalMatching(g.use(), o) })
}

// Coloring returns a (Δ+1)-coloring.
func (m *algoMethods) Coloring(ctx context.Context, g *Graph) ([]uint32, error) {
	return call(m, ctx, func(o *algos.Options) []uint32 { return algos.Coloring(g.use(), o) })
}

// ApproxSetCover solves the bipartite set-cover instance (sets are
// vertices [0, numSets)); see algos.BipartiteFromSets for the layout.
func (m *algoMethods) ApproxSetCover(ctx context.Context, g *Graph, numSets uint32) ([]uint32, error) {
	return call(m, ctx, func(o *algos.Options) []uint32 { return algos.ApproxSetCover(g.use(), o, numSets) })
}

// KCore returns the coreness of every vertex.
func (m *algoMethods) KCore(ctx context.Context, g *Graph) ([]uint32, error) {
	return call(m, ctx, func(o *algos.Options) []uint32 { return algos.KCore(g.use(), o) })
}

// ApproxDensestSubgraph returns a 2(1+ε)-approximate densest subgraph.
func (m *algoMethods) ApproxDensestSubgraph(ctx context.Context, g *Graph) (*algos.DensestResult, error) {
	return call(m, ctx, func(o *algos.Options) *algos.DensestResult { return algos.ApproxDensestSubgraph(g.use(), o) })
}

// TriangleCount returns the triangle count with its work counters.
func (m *algoMethods) TriangleCount(ctx context.Context, g *Graph) (*algos.TriangleResult, error) {
	return call(m, ctx, func(o *algos.Options) *algos.TriangleResult { return algos.TriangleCount(g.use(), o) })
}

// ranked carries the two results of the PageRank variants through call.
type ranked struct {
	ranks []float64
	iters int
}

// PageRank iterates to convergence (eps, maxIters) and returns the ranks
// and the number of iterations.
func (m *algoMethods) PageRank(ctx context.Context, g *Graph, eps float64, maxIters int) ([]float64, int, error) {
	res, err := call(m, ctx, func(o *algos.Options) ranked {
		ranks, iters := algos.PageRank(g.use(), o, eps, maxIters)
		return ranked{ranks, iters}
	})
	return res.ranks, res.iters, err
}

// PageRankIter runs one PageRank iteration (prev -> next), returning the
// L1 change.
func (m *algoMethods) PageRankIter(ctx context.Context, g *Graph, prev, next []float64) (float64, error) {
	return call(m, ctx, func(o *algos.Options) float64 { return algos.PageRankIter(g.use(), o, prev, next) })
}

// KCliqueCount counts k-cliques (k >= 3) via recursive intersection over
// the filter-oriented DAG — the PSAM extension the paper's §3.2 proposes.
func (m *algoMethods) KCliqueCount(ctx context.Context, g *Graph, k int) (int64, error) {
	return call(m, ctx, func(o *algos.Options) int64 { return algos.KCliqueCount(g.use(), o, k) })
}

// PersonalizedPageRank computes the personalized PageRank vector of src
// (restart probability 1-damping), one of the local problems §3.2 notes
// fit the regular PSAM. Returns the ranks and iterations used.
func (m *algoMethods) PersonalizedPageRank(ctx context.Context, g *Graph, src uint32, damping, eps float64, maxIters int) ([]float64, int, error) {
	res, err := call(m, ctx, func(o *algos.Options) ranked {
		ranks, iters := algos.PersonalizedPageRank(g.use(), o, src, damping, eps, maxIters)
		return ranked{ranks, iters}
	})
	return res.ranks, res.iters, err
}

// KTruss computes the trussness of every edge. Note the PSAM boundary
// the paper draws (§3.2): the Θ(m)-word output forces Θ(m) small-memory
// state, which Stats().PeakDRAMWords will reflect.
func (m *algoMethods) KTruss(ctx context.Context, g *Graph) (*algos.KTrussResult, error) {
	return call(m, ctx, func(o *algos.Options) *algos.KTrussResult { return algos.KTruss(g.use(), o) })
}

// LocalCluster finds a low-conductance community around seed with a
// personalized-PageRank sweep cut (a §3.2 local-clustering problem).
func (m *algoMethods) LocalCluster(ctx context.Context, g *Graph, seed uint32, damping float64, maxSize int) (*algos.LocalClusterResult, error) {
	return call(m, ctx, func(o *algos.Options) *algos.LocalClusterResult {
		return algos.LocalCluster(g.use(), o, seed, damping, maxSize)
	})
}
