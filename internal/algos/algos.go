// Package algos implements the 18 Sage graph algorithms of Table 1 on top
// of the semi-asymmetric primitives: edgeMapChunked traversals
// (internal/traverse), graph filters (internal/gfilter), and semi-eager
// bucketing (internal/bucket). Every algorithm follows the Sage
// discipline: the graph is read-only (no NVRAM writes), and mutable state
// is O(n) words of DRAM — O(n + m/64) for the four filter-based
// algorithms (biconnectivity, approximate set cover, triangle counting,
// maximal matching).
//
// All entry points take a *Options carrying the PSAM environment and the
// traversal strategy, so the same code runs as Sage (Chunked strategy,
// AppDirect mode) or as the GBBS baseline (Blocked strategy, any mode) —
// which is how the paper's Figure 1/7 configurations are realized.
package algos

import (
	"sage/internal/frontier"
	"sage/internal/graph"
	"sage/internal/parallel"
	"sage/internal/psam"
	"sage/internal/traverse"
)

// Infinity marks unreached vertices in distance/parent arrays.
const Infinity = ^uint32(0)

// fallbackScratch backs the algorithm inner loops of callers that do not
// thread per-run pools (o.Traverse.Pools == nil): single-run tools and
// tests that never traverse concurrently. Runs issued through the public
// engine always carry their own pools.
var fallbackScratch graph.ScratchPool

// Options configures an algorithm run.
type Options struct {
	// Env is the PSAM accounting environment (nil disables accounting).
	Env *psam.Env
	// Traverse selects the edgeMap strategy and direction optimization.
	Traverse traverse.Options
	// FB is the graph filter block size in edges (default 64; must match
	// the compression block size on compressed inputs).
	FB int
	// Seed drives all randomized algorithms deterministically.
	Seed uint64
	// Eps is the approximation parameter for set cover and densest
	// subgraph (default 0.05) and the PageRank convergence threshold
	// scale.
	Eps float64
	// LDDBeta is the low-diameter decomposition parameter (default 0.2,
	// the practical setting of §5.3).
	LDDBeta float64
	// KCoreFetchAdd selects the fetch-and-add k-core variant instead of
	// the histogram variant (the ablation of §4.3.4).
	KCoreFetchAdd bool
	// NewFilter overrides the batch-deletion structure used by the four
	// filtering algorithms; nil selects Sage's graph filter (§4.2). The
	// GBBS baselines install their mutation-based packer here.
	NewFilter FilterFactory
}

// Defaults returns options with the paper's default parameters and no
// accounting environment.
func Defaults() *Options {
	return &Options{
		Traverse: traverse.Options{Strategy: traverse.Chunked},
		FB:       64,
		Seed:     1,
		Eps:      0.05,
		LDDBeta:  0.2,
	}
}

// WithEnv returns a copy of o bound to env.
func (o *Options) WithEnv(env *psam.Env) *Options {
	c := *o
	c.Env = env
	return &c
}

// edgeMap runs the configured traversal.
func (o *Options) edgeMap(g graph.Adj, vs *frontier.VertexSubset, ops traverse.Ops, tweak func(*traverse.Options)) *frontier.VertexSubset {
	opt := o.Traverse
	if tweak != nil {
		tweak(&opt)
	}
	return traverse.EdgeMap(g, o.Env, vs, ops, opt)
}

// scratch returns worker w's decode buffer from the run's pools (or the
// shared fallback for callers that do not thread pools). The ownership
// discipline matches the traversal layer: indexed by the parallel worker
// id, never shared across nesting levels or across concurrent runs.
func (o *Options) scratch(w int) *graph.Scratch {
	if p := o.Traverse.Pools; p != nil {
		return p.Scratch(w)
	}
	return fallbackScratch.Get(w)
}

// Checkpoint polls the run's cancellation context (iteration boundary).
// It must be called from the goroutine driving the algorithm, never from
// inside a parallel loop body.
func (o *Options) Checkpoint() { o.Env.Checkpoint() }

// cancelled reports whether the run's context is done. It is the poll for
// parallel loop bodies, which must not panic off their own goroutines:
// the body returns early and the driver Checkpoints after the loop, so a
// partial result never escapes.
func (o *Options) cancelled() bool {
	return o.Env != nil && o.Env.Ctx != nil && o.Env.Ctx.Err() != nil
}

// hash64 mixes x with the seed (shared by the randomized algorithms).
func hash64(x, seed uint64) uint64 {
	x ^= seed + 0x9e3779b97f4a7c15
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// edgeKey canonically encodes the undirected edge {u, v} as a non-zero
// uint64 key.
func edgeKey(u, v uint32) uint64 {
	lo, hi := min(u, v), max(u, v)
	return (uint64(lo)<<32 | uint64(hi)) + 1
}

// decodeEdgeKey inverts edgeKey.
func decodeEdgeKey(k uint64) (uint32, uint32) {
	k--
	return uint32(k >> 32), uint32(k)
}

// neighborCounter is the histogram primitive of §4.3.4 with the dense
// optimization, holding its round buffers for one peeling run: count
// returns, for a removal set S, how many edges each live vertex loses.
// The live vertices are the set bits of the caller's bitmap, from which
// the caller has cleared S. When |S| + Σ_{v∈S} deg(v) exceeds
// m/traverse.DenseThresholdDen the round is a forced-dense edgeMap from S
// gated by the live bitmap (O(m) work, O(n) memory); otherwise it gathers
// S's live neighbors and histograms them (work proportional to S's degree
// sum). The buffers are billed at their high-water mark until free.
type neighborCounter struct {
	g      graph.Adj
	o      *Options
	flat   graph.Flat
	live   []uint64
	billed int64

	// Sparse rounds: each removed vertex's slot in keys and its number of
	// live neighbors (then their place in kept), the gathered neighbors,
	// the packed multiset, the histogram's buffers.
	offs, cnt  []int64
	keys, kept []uint32
	hist       parallel.HistScratch
	// Dense rounds: per-vertex loss counts, all zero between rounds, and
	// the output rows.
	counts []uint32
	out    []parallel.KeyCount
}

func newNeighborCounter(g graph.Adj, o *Options, live []uint64) *neighborCounter {
	return &neighborCounter{g: g, o: o, flat: graph.NewFlat(g), live: live}
}

// count returns the (vertex, edges lost) rows for removing s, in ascending
// vertex order. The rows are valid until the next call.
func (c *neighborCounter) count(s []uint32) []parallel.KeyCount {
	g, o, env, flat, live := c.g, c.o, c.o.Env, c.flat, c.live
	n := g.NumVertices()
	sumDeg := parallel.ReduceSum(len(s), 0, func(i int) int64 { return int64(g.Degree(s[i])) })
	if sumDeg+int64(len(s)) > int64(g.NumEdges())/traverse.DenseThresholdDen {
		// Dense variant: a live vertex joins the output on its first hit,
		// so the output's ids are the touched vertices in increasing order.
		if c.counts == nil {
			c.counts = make([]uint32, n)
			c.bill()
		}
		counts := c.counts
		ops := traverse.Ops{Update: func(_, d uint32, _ int32) bool { counts[d]++; return counts[d] == 1 }, Cond: live}
		ids := o.edgeMap(g, frontier.FromSparse(n, s), ops, func(t *traverse.Options) { t.ForceDense = true }).Sparse()
		c.out = parallel.Resize(c.out, len(ids))
		c.bill()
		out := c.out
		// Emit the rows and undo only what this round set.
		parallel.For(len(ids), 0, func(i int) {
			out[i] = parallel.KeyCount{Key: ids[i], Count: counts[ids[i]]}
			counts[ids[i]] = 0
		})
		env.Free(int64(frontier.Words(n))) // the edgeMap's output bitmap
		return out
	}
	// Sparse variant: gather the neighbor multiset, then histogram. Each
	// vertex packs its live neighbors at the front of its own degree-sized
	// slot; the packed runs are then copied together.
	c.offs = parallel.Resize(c.offs, len(s)+1)
	c.cnt = parallel.Resize(c.cnt, len(s)+1)
	offs, cnt := c.offs, c.cnt
	parallel.For(len(s), 0, func(i int) { offs[i] = int64(g.Degree(s[i])) })
	offs[len(s)] = 0
	parallel.Scan(offs)
	c.keys = parallel.Resize(c.keys, int(sumDeg))
	keys := c.keys
	parallel.ForWorker(len(s), 8, func(w, i int) {
		v := s[i]
		deg := g.Degree(v)
		wr := offs[i]
		nghs, _ := flat.Read(env, w, v, 0, deg, o.scratch(w))
		for _, ngh := range nghs {
			if frontier.Has(live, ngh) {
				keys[wr] = ngh
				wr++
			}
		}
		cnt[i] = wr - offs[i]
		env.StateWrite(w, int64(deg))
	})
	cnt[len(s)] = 0
	c.kept = parallel.Resize(c.kept, int(parallel.Scan(cnt)))
	kept := c.kept
	parallel.For(len(s), 64, func(i int) {
		copy(kept[cnt[i]:cnt[i+1]], keys[offs[i]:])
	})
	rows := parallel.HistogramInPlace(kept, &c.hist)
	c.bill()
	return rows
}

// bill charges the round buffers' growth to the run's DRAM tracker, a
// word per element: each buffer is billed once, at its high-water mark.
func (c *neighborCounter) bill() {
	words := int64(cap(c.offs)+cap(c.cnt)+cap(c.keys)+cap(c.kept)+cap(c.counts)+cap(c.out)) + c.hist.Words()
	if words > c.billed {
		c.o.Env.Alloc(words - c.billed)
		c.billed = words
	}
}

// free releases everything bill charged.
func (c *neighborCounter) free() { c.o.Env.Free(c.billed) }
