// Package traverse implements the edgeMap family of graph-traversal
// primitives (§2, §4.1): the pull-based dense traversal, the push-based
// sparse traversal with its O(Σ deg) intermediate memory, the blocked
// variant used by GBBS, and Sage's memory-efficient edgeMapChunked
// (Algorithm 1), together with Beamer-style direction optimization.
//
// Every variant charges its graph accesses to the PSAM environment, and
// its temporary allocations to the small-memory space tracker, so the
// Table 5 memory comparison and the Figure 1/7 cost comparisons come
// directly out of the same code paths that compute results.
//
// The inner loops are closure-free: each traversal resolves the graph's
// access path once (graph.Flat) and iterates plain neighbor slices —
// aliases of the CSR arrays for uncompressed graphs, or block decodes
// into per-worker scratch buffers for compressed ones, amortizing decode
// cost per block instead of per edge. Small per-round loops launch on the
// parallel package's persistent worker pool, so a frontier algorithm's
// thousands of rounds do not spawn goroutines.
package traverse

import (
	"sage/internal/costmodel"
	"sage/internal/frontier"
	"sage/internal/graph"
	"sage/internal/parallel"
	"sage/internal/psam"
)

// Ops bundles the user functions of edgeMap (§2): Update is applied
// non-atomically by the dense (pull) traversal, UpdateAtomic by the
// push-based traversals (multiple sources may race on one target), and
// Cond gates targets. Update functions return true iff the target should
// join the output subset; Cond returning false both skips the target and
// lets the dense traversal break out of its scan early.
type Ops struct {
	Update       func(s, d uint32, w int32) bool
	UpdateAtomic func(s, d uint32, w int32) bool
	Cond         func(d uint32) bool
}

// CondTrue is the always-true condition.
func CondTrue(uint32) bool { return true }

// Strategy selects the push-side implementation.
type Strategy int

const (
	// Chunked is Sage's edgeMapChunked (§4.1.2): O(n) intermediate words.
	Chunked Strategy = iota
	// Blocked is GBBS's edgeMapBlocked: cache-friendly but O(Σ deg)
	// intermediate memory.
	Blocked
	// Sparse is Ligra's original push traversal: O(Σ deg) memory and
	// sentinel-filtered output.
	Sparse
	// Auto selects the direction only, per EdgeMap call, by pricing both
	// with the run environment's profile (psam.Env.Profile) instead of the
	// measured-count Ligra heuristic; its push side is always Chunked.
	// Without an environment it behaves like Chunked.
	Auto
)

// String names the strategy as in Appendix D.2's Table 5.
func (s Strategy) String() string {
	switch s {
	case Chunked:
		return "edgeMapChunked"
	case Blocked:
		return "edgeMapBlocked"
	case Sparse:
		return "edgeMapSparse"
	case Auto:
		return "edgeMapAuto"
	}
	return "unknown"
}

// Options configures a traversal.
type Options struct {
	// Strategy is the push-side implementation (default Chunked).
	Strategy Strategy
	// ForceSparse disables switching to the dense traversal (the
	// "sparse-only" configuration of Appendix D.2).
	ForceSparse bool
	// ForceDense always runs the dense traversal.
	ForceDense bool
	// Dedup removes duplicate targets from sparse outputs (needed when
	// UpdateAtomic can return true more than once per target).
	Dedup bool
	// Pools is the per-run scratch set (decode buffers + chunk free
	// lists). Nil selects a shared fallback, which is only safe when
	// top-level traversals are not issued concurrently.
	Pools *Pools
}

// denseThresholdDen is Ligra's direction-optimization denominator: the
// traversal runs dense when |U| + Σ_{u∈U} deg(u) > m/denseThresholdDen.
const denseThresholdDen = 20

// EdgeMap applies ops over the edges out of vs and returns the subset of
// targets for which an update succeeded (Theorem 4.1: O(Σ deg) work,
// O(log n) depth, O(n) small-memory words with the Chunked strategy).
func EdgeMap(g graph.Adj, env *psam.Env, vs *frontier.VertexSubset, ops Ops, opt Options) *frontier.VertexSubset {
	env.Checkpoint() // frontier boundary: a cancelled run unwinds here
	n := g.NumVertices()
	if vs.Size() == 0 {
		return frontier.Empty(n)
	}
	outDeg := frontierDegree(g, env, vs)
	var dense bool
	if opt.Strategy == Auto && env != nil {
		dense = opt.ForceDense || (!opt.ForceSparse &&
			predictDense(&env.Profile, int64(n), int64(g.NumEdges()), int64(vs.Size()), outDeg))
	} else {
		dense = opt.ForceDense || (!opt.ForceSparse && outDeg+int64(vs.Size()) > int64(g.NumEdges())/denseThresholdDen)
	}
	if dense {
		return edgeMapDense(g, env, vs, ops, opt)
	}
	switch opt.Strategy {
	case Blocked:
		return edgeMapBlocked(g, env, vs, ops, opt, outDeg)
	case Sparse:
		return edgeMapSparse(g, env, vs, ops, opt, outDeg)
	default:
		return EdgeMapChunked(g, env, vs, ops, opt)
	}
}

// predictDense prices both traversal directions with the profile's one
// cost formula (Profile.Cost) — the one the simulator bills the run with —
// and returns true when the pull-based scan is predicted cheaper:
// direction optimization driven by predicted rather than measured cost.
// The push side reads the frontier's degrees and out-edges and makes two
// small-memory operations per edge. The pull side streams the scan
// positions the early exit is expected to leave standing — the break-even
// fraction m/denseThresholdDen of Ligra's measured heuristic — plus one
// degree probe per vertex. On word-granular profiles the comparison lands
// near the classic |U| + Σdeg > m/20 rule; on page-granular profiles both
// sides round to pages, as the simulator does.
//
//sage:hotpath
func predictDense(p *costmodel.Profile, n, m, frontier, outDeg int64) bool {
	push := p.Cost(costmodel.Counts{NVRAMReads: frontier + outDeg, DRAMReads: outDeg, DRAMWrites: outDeg})
	pull := p.Cost(costmodel.Counts{NVRAMReads: m/denseThresholdDen + n, DRAMReads: n})
	return pull < push
}

// frontierDegree computes Σ_{u∈U} deg(u), charging the offset reads.
func frontierDegree(g graph.Adj, env *psam.Env, vs *frontier.VertexSubset) int64 {
	if vs.IsDense() {
		d := vs.Dense()
		total := parallel.ReduceSum(int(g.NumVertices()), 0, func(i int) int64 {
			if d[i] {
				return int64(g.Degree(uint32(i)))
			}
			return 0
		})
		env.GraphRead(0, 0, int64(g.NumVertices())) // offset reads (one degree per vertex)
		return total
	}
	sp := vs.Sparse()
	total := parallel.ReduceSum(len(sp), 0, func(i int) int64 {
		return int64(g.Degree(sp[i]))
	})
	env.GraphRead(0, 0, int64(len(sp))) // offset reads
	return total
}

// denseFirstPiece is how many edges the pull scan reads first from a
// block-decoded list. The early exit typically fires within a few edges
// and decoding stops at the piece's end, so a short first piece spares
// most of a block's varints; a scan that gets past it reads the rest of
// the block (decoding over the first piece again), then whole blocks.
const denseFirstPiece = 8

// edgeMapDense is the pull-based traversal: every vertex satisfying Cond
// scans its in-edges (equal to out-edges on symmetric graphs) for frontier
// members, stopping as soon as Cond(d) turns false. The scan reads one
// piece of the list at a time — the whole list where BlockSize is 0,
// otherwise denseFirstPiece edges and then up to each block boundary — so
// an early exit also stops the decoding.
func edgeMapDense(g graph.Adj, env *psam.Env, vs *frontier.VertexSubset, ops Ops, opt Options) *frontier.VertexSubset {
	n := g.NumVertices()
	from := vs.Dense()
	out := make([]bool, n)
	env.Alloc(int64(n+7) / 8)
	flat := graph.NewFlat(g)
	pools := poolsOf(opt)
	var outCounts [parallel.MaxWorkers]struct {
		c int64
		_ [56]byte
	}
	piece := uint32(g.BlockSize())
	parallel.ForBlocks(int(n), 256, func(w, lo, hi int) {
		sc := pools.Scratch(w)
		var scanned, produced int64
		for i := lo; i < hi; i++ {
			d := uint32(i)
			if !ops.Cond(d) {
				continue
			}
			if piece == 0 {
				nghs, ws := flat.Full(d, sc)
				k, _ := densePiece(ops, from, out, d, nghs, ws, &produced)
				scanned += k
				continue
			}
			deg := g.Degree(d)
			for p, q := uint32(0), uint32(denseFirstPiece); p < deg; p, q = q, (q/piece+1)*piece {
				nghs, ws := flat.Slice(d, p, q, sc)
				k, stopped := densePiece(ops, from, out, d, nghs, ws, &produced)
				scanned += k
				if stopped {
					break
				}
			}
		}
		env.GraphRead(w, 0, scanned)
		env.StateRead(w, scanned)
		env.StateWrite(w, produced)
		outCounts[w].c += produced
	})
	var total int64
	for i := range outCounts {
		total += outCounts[i].c
	}
	return frontier.FromDense(n, out, int(total))
}

// densePiece runs the pull scan over one flat piece of d's in-edges,
// returning the number of positions scanned and whether the scan stopped
// early. Cond(d) is a function of d's state, which only Update(·, d)
// mutates, and one worker owns d for the whole scan — so the early-exit
// check is needed only after an Update invocation, not on every edge; the
// stop position (and hence the charged scan count) is identical to the
// per-edge check.
//
//sage:hotpath
func densePiece(ops Ops, from, out []bool, d uint32, nghs []uint32, ws []int32, produced *int64) (int64, bool) {
	if ws == nil {
		for j, s := range nghs {
			if from[s] {
				if ops.Update(s, d, 1) && !out[d] {
					out[d] = true
					*produced++
				}
				if !ops.Cond(d) {
					return int64(j) + 1, true
				}
			}
		}
	} else {
		for j, s := range nghs {
			if from[s] {
				if ops.Update(s, d, ws[j]) && !out[d] {
					out[d] = true
					*produced++
				}
				if !ops.Cond(d) {
					return int64(j) + 1, true
				}
			}
		}
	}
	return int64(len(nghs)), false
}

// edgeMapSparse is Ligra's push traversal: it allocates an output array
// proportional to the frontier's out-degree, writes winners (or a
// sentinel), and filters. Its O(Σ deg) allocation is the PSAM violation
// that motivates edgeMapChunked (§4.1.1).
func edgeMapSparse(g graph.Adj, env *psam.Env, vs *frontier.VertexSubset, ops Ops, opt Options, outDeg int64) *frontier.VertexSubset {
	n := g.NumVertices()
	sp := vs.Sparse()
	const sentinel = ^uint32(0)
	offs := make([]int64, len(sp)+1)
	parallel.For(len(sp), 0, func(i int) { offs[i] = int64(g.Degree(sp[i])) })
	parallel.Scan(offs)
	out := make([]uint32, outDeg)
	env.Alloc(outDeg + int64(len(sp)))
	defer env.Free(outDeg + int64(len(sp)))
	flat := graph.NewFlat(g)
	pools := poolsOf(opt)
	parallel.ForWorker(len(sp), 16, func(w, i int) {
		u := sp[i]
		deg := g.Degree(u)
		base := offs[i]
		env.GraphRead(w, g.EdgeAddr(u), g.ScanCost(u, 0, deg))
		nghs, ws := flat.Slice(u, 0, deg, pools.Scratch(w))
		if ws == nil {
			for j, d := range nghs {
				if ops.Cond(d) && ops.UpdateAtomic(u, d, 1) {
					out[base+int64(j)] = d
				} else {
					out[base+int64(j)] = sentinel
				}
			}
		} else {
			for j, d := range nghs {
				if ops.Cond(d) && ops.UpdateAtomic(u, d, ws[j]) {
					out[base+int64(j)] = d
				} else {
					out[base+int64(j)] = sentinel
				}
			}
		}
		env.StateRead(w, int64(deg))
		env.StateWrite(w, int64(deg)) // sentinel or winner written per edge
	})
	res := parallel.Filter(out, func(v uint32) bool { return v != sentinel })
	if opt.Dedup {
		res = dedup(n, env, res)
	}
	env.Alloc(int64(len(res)))
	return frontier.FromSparse(n, res)
}

// dedup removes duplicate ids with a shared bitset.
func dedup(n uint32, env *psam.Env, ids []uint32) []uint32 {
	seen := parallel.NewBitset(int(n))
	env.Alloc(int64(seen.Words()) / 2)
	defer env.Free(int64(seen.Words()) / 2)
	keep := make([]bool, len(ids))
	parallel.ForWorker(len(ids), 0, func(w, i int) {
		keep[i] = seen.TestAndSet(ids[i])
		env.StateWrite(w, 1)
	})
	return parallel.FilterIndex(ids, func(i int, _ uint32) bool { return keep[i] })
}
