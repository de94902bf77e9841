package algos

import (
	"math"

	"sage/internal/graph"
	"sage/internal/parallel"
)

// pagerankDamping is the paper's damping factor (§5.3).
const pagerankDamping = 0.85

// prParallelDegree is the degree above which a vertex's neighbor
// aggregation runs as a parallel reduction — the Sage optimization over
// Ligra's sequential per-vertex aggregation (§4.3.5), which bounds the
// per-iteration depth by O(log n).
const prParallelDegree = 8192

// pagerankRound is the round state of a PageRank run, allocated once and
// held across iterations: the damping and the teleport target (src, or
// every vertex alike when src < 0), the access path (resolved once per
// run, also for the high-degree parallel aggregation), the vertex degrees
// (read twice per vertex per iteration, so tabulated once instead of
// asked of the view each time), the degree-divided contributions of the
// previous rank vector, and the per-worker L1 sums (all zero between
// steps). 2n words of small-memory.
type pagerankRound struct {
	o       *Options
	damping float64
	src     int
	flat    graph.Flat
	deg     []uint32
	contrib []float64
	diffs   [parallel.MaxWorkers]struct {
		d float64
		_ [56]byte
	}
}

// newPagerankRound allocates and charges the round state; the caller
// releases it with free.
func newPagerankRound(g graph.Adj, o *Options, damping float64, src int) *pagerankRound {
	n := int(g.NumVertices())
	o.Env.Alloc(2 * int64(n))
	return &pagerankRound{
		o:       o,
		damping: damping,
		src:     src,
		flat:    graph.NewFlat(g),
		deg:     parallel.Tabulate(n, func(i int) uint32 { return g.Degree(uint32(i)) }),
		contrib: make([]float64, n),
	}
}

func (r *pagerankRound) free() { r.o.Env.Free(2 * int64(len(r.deg))) }

// step performs one dense pull-based iteration from prev into next and
// returns the L1 change.
func (r *pagerankRound) step(prev, next []float64) float64 {
	o, flat, deg, contrib, diffs := r.o, &r.flat, r.deg, r.contrib, &r.diffs
	o.Checkpoint() // one iteration is the cancellation granularity
	n := len(deg)
	// Pre-divide by degree so the pull only sums contributions.
	parallel.For(n, 0, func(i int) {
		if d := deg[i]; d > 0 {
			contrib[i] = prev[i] / float64(d)
		} else {
			contrib[i] = 0
		}
	})
	base := 0.0 // the teleport share of each vertex
	if r.src < 0 {
		base = (1 - r.damping) / float64(n)
	}
	parallel.ForBlocks(n, 64, func(w, lo, hi int) {
		sc := o.scratch(w)
		var edges int64
		var l1 float64
		for i := lo; i < hi; i++ {
			v := uint32(i)
			d := deg[i]
			var acc float64
			if d > prParallelDegree {
				acc = aggregateParallel(flat, v, d, contrib)
			} else {
				nghs, _ := flat.Slice(v, 0, d, sc)
				for _, u := range nghs {
					acc += contrib[u]
				}
			}
			edges += int64(d)
			nv := base + r.damping*acc
			if i == r.src {
				nv += 1 - r.damping
			}
			l1 += math.Abs(nv - prev[i])
			next[i] = nv
		}
		flat.BillLists(o.Env, w, uint32(lo), uint32(hi))
		o.Env.StateRead(w, edges)
		o.Env.StateWrite(w, int64(hi-lo))
		diffs[w].d += l1
	})
	var total float64
	for i := range diffs {
		total += diffs[i].d
		diffs[i].d = 0
	}
	return total
}

// PageRankIter performs one dense pull-based PageRank iteration from
// prev, writing into next (both length n), and returns the L1 change.
// O(m) work, O(log n) depth, O(n) words of small-memory per iteration.
func PageRankIter(g graph.Adj, o *Options, prev, next []float64) float64 {
	r := newPagerankRound(g, o, pagerankDamping, -1)
	defer r.free()
	return r.step(prev, next)
}

// aggregateParallel reduces a high-degree vertex's neighbor contributions
// with a parallel block reduction. It runs nested inside a worker's loop
// body, so it cannot use the per-worker scratch; each inner block decodes
// into its own local buffer (free for zero-copy CSR, one allocation per
// prParallelDegree edges otherwise). flat is the round's access path.
func aggregateParallel(flat *graph.Flat, v, deg uint32, contrib []float64) float64 {
	nBlocks := (int(deg) + prParallelDegree - 1) / prParallelDegree
	partial := make([]float64, nBlocks)
	parallel.For(nBlocks, 1, func(b int) {
		lo := uint32(b * prParallelDegree)
		hi := min(lo+prParallelDegree, deg)
		var sc graph.Scratch
		nghs, _ := flat.Slice(v, lo, hi, &sc)
		var acc float64
		for _, u := range nghs {
			acc += contrib[u]
		}
		partial[b] = acc
	})
	var acc float64
	for _, p := range partial {
		acc += p
	}
	return acc
}

// PageRank iterates the PageRankIter step until the L1 change drops below
// eps (default 1e-6, the paper's setting) or maxIters passes, holding one
// round state for the whole run. It returns the rank vector and the
// number of iterations run.
func PageRank(g graph.Adj, o *Options, eps float64, maxIters int) ([]float64, int) {
	if eps <= 0 {
		eps = 1e-6
	}
	return pagerank(g, o, -1, pagerankDamping, eps, maxIters)
}

// PersonalizedPageRank computes the personalized PageRank vector of a
// source vertex by power iteration with restart: ranks teleport back to
// src with probability 1-damping. The paper's applicability discussion
// (§3.2) lists personalized PageRank among the local problems that
// "naturally fit in the regular PSAM model": the iteration state is O(n)
// DRAM vectors and the graph is only read. Returns the rank vector and
// the number of iterations until the L1 change fell below eps.
func PersonalizedPageRank(g graph.Adj, o *Options, src uint32, damping, eps float64, maxIters int) ([]float64, int) {
	if damping <= 0 || damping >= 1 {
		damping = 0.85
	}
	if eps <= 0 {
		eps = 1e-8
	}
	return pagerank(g, o, int(src), damping, eps, maxIters)
}

// pagerank iterates from the uniform vector (src < 0) or from src's unit
// vector, teleporting to every vertex alike or to src.
func pagerank(g graph.Adj, o *Options, src int, damping, eps float64, maxIters int) ([]float64, int) {
	n := int(g.NumVertices())
	if maxIters <= 0 {
		maxIters = 100
	}
	prev := make([]float64, n)
	next := make([]float64, n)
	o.Env.Alloc(2 * int64(n))
	defer o.Env.Free(2 * int64(n))
	if src < 0 {
		parallel.Fill(prev, 1/float64(n))
	} else {
		prev[src] = 1
	}
	r := newPagerankRound(g, o, damping, src)
	defer r.free()
	iters := 0
	for iters < maxIters {
		diff := r.step(prev, next)
		prev, next = next, prev
		iters++
		if diff < eps {
			break
		}
	}
	return prev, iters
}
