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
//
// The condition C is data, not a function: Ops.Cond is a ⌈n/64⌉-word
// vertex bitmap (the frontier package's form), so the pull scan walks the
// live vertices a word at a time and the push scans test one bit per edge.
// The pull scan's 512-vertex blocks each own one cache line of Cond and of
// the output bitmap; a block builds each output word in a register and
// stores it once.
package traverse

import (
	"math/bits"

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
// join the output subset.
//
// Cond is the condition C as a bitmap of frontier.Words(n) words that the
// algorithm owns: bit d is set while d may still be updated, and the bits
// past n are clear. Nil means every target qualifies. The push traversals
// test d's bit with an atomic load before calling UpdateAtomic, which
// retires d with frontier.Claim when it wants no further updates. The
// pull scan visits only the set bits, and calls Update(·, d) only while
// d's bit is set: Update retires d with frontier.Clear (one worker owns
// d's word for the whole scan), and the scan of d's in-edges ends there.
// Update(·, d) and UpdateAtomic(·, d) may clear d's bit but no other.
type Ops struct {
	Update       func(s, d uint32, w int32) bool
	UpdateAtomic func(s, d uint32, w int32) bool
	Cond         []uint64
}

// CondTrue is the always-true condition: no bitmap, every target
// qualifies.
var CondTrue []uint64

// condHas reports whether d passes cond, loading d's word atomically so
// that a push traversal may test it while other workers claim bits.
//
//sage:hotpath
func condHas(cond []uint64, d uint32) bool {
	return cond == nil || frontier.Has(cond, d)
}

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

// DenseThresholdDen is Ligra's direction-optimization denominator: the
// traversal runs dense when |U| + Σ_{u∈U} deg(u) > m/DenseThresholdDen.
const DenseThresholdDen = 20

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
		dense = opt.ForceDense || (!opt.ForceSparse && outDeg+int64(vs.Size()) > int64(g.NumEdges())/DenseThresholdDen)
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
// fraction m/DenseThresholdDen of Ligra's measured heuristic — plus one
// degree probe per vertex. On word-granular profiles the comparison lands
// near the classic |U| + Σdeg > m/20 rule; on page-granular profiles both
// sides round to pages, as the simulator does. The edge terms count
// edges, while a read bills the stored words per edge (two on a weighted
// CSR, about a quarter on byte-64); both sides' edge terms scale alike, and
// TestAutoRegret holds Auto within its bound without scaling them.
//
//sage:hotpath
func predictDense(p *costmodel.Profile, n, m, frontier, outDeg int64) bool {
	push := p.Cost(costmodel.Counts{NVRAMReads: frontier + outDeg, DRAMReads: outDeg, DRAMWrites: outDeg})
	pull := p.Cost(costmodel.Counts{NVRAMReads: m/DenseThresholdDen + n, DRAMReads: n})
	return pull < push
}

// frontierDegree computes Σ_{u∈U} deg(u), charging the offset reads. A
// dense frontier is walked a word at a time, 16 words (1,024 vertices) a
// block, probing the degrees of the set bits only.
func frontierDegree(g graph.Adj, env *psam.Env, vs *frontier.VertexSubset) int64 {
	if vs.IsDense() {
		d := vs.Dense()
		total := parallel.ReduceSum(len(d), 16, func(i int) int64 {
			var sum int64
			for w := d[i]; w != 0; w &= w - 1 {
				sum += int64(g.Degree(uint32(i<<6 | bits.TrailingZeros64(w))))
			}
			return sum
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

// denseGrain is the pull scan's block of vertices. ForBlocks starts every
// block at a multiple of its grain, so with a grain that is a multiple of
// 64 each block owns whole words of the output bitmap and of Cond, and its
// worker reads and writes them without atomics. 512 vertices are 8 words,
// one 64-byte cache line of each bitmap, so no two workers write to one
// line.
const denseGrain = 512

// The index is out of range, and the build fails, unless denseGrain is a
// multiple of 64.
var _ = [1]struct{}{}[denseGrain%64]

// edgeMapDense is the pull-based traversal: every vertex whose Cond bit
// is set scans its in-edges (equal to out-edges on symmetric graphs) for
// frontier members, stopping as soon as an Update clears that bit. The
// scan walks Cond a word at a time (denseWord), visiting set bits only,
// and builds each output word in a register and stores it once. Input and
// output frontiers are bitmaps of ⌈n/64⌉ words.
func edgeMapDense(g graph.Adj, env *psam.Env, vs *frontier.VertexSubset, ops Ops, opt Options) *frontier.VertexSubset {
	n := g.NumVertices()
	from := vs.Dense()
	nw := frontier.Words(n)
	out := make([]uint64, nw)
	env.Alloc(int64(nw))
	flat := graph.NewFlat(g)
	pools := poolsOf(opt)
	var outCounts [parallel.MaxWorkers]struct {
		c int64
		_ [56]byte
	}
	piece := uint32(g.BlockSize())
	cond := ops.Cond
	parallel.ForBlocks(nw, denseGrain/64, func(w, lo, hi int) {
		sc := pools.Scratch(w)
		var scanned, words, produced int64
		for i := lo; i < hi; i++ {
			// cw is the word the scan's early exit watches: Cond's, or
			// for a nil Cond a local word of the vertices below n that
			// no Update clears.
			live := ^uint64(0)
			if i == nw-1 && n&63 != 0 {
				live = 1<<(n&63) - 1
			}
			cw := &live
			if cond != nil {
				cw = &cond[i]
			}
			k, kw, ow := denseWord(ops.Update, from, &flat, sc, piece, cw, uint32(i)<<6)
			out[i] = ow
			scanned += k
			words += kw
			produced += int64(bits.OnesCount64(ow))
		}
		flat.Bill(env, w, uint32(lo)<<6, words)
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

// denseWord runs the pull scan for the 64 vertices from base whose bits
// are set in the condition word *cw, returning the number of positions
// scanned, the stored words those positions cover (ScanCost up to each
// vertex's stop) and the word of vertices an Update returned true for. Each
// vertex d reads its in-edges one piece at a time: the whole list where
// piece is 0, otherwise denseFirstPiece edges and then up to each block
// boundary, so an early exit also stops the decoding; a piece shorter
// than asked for is the list's last.
// d's bit is only cleared by Update(·, d), and one worker owns the word
// for the whole scan — so the bit is tested only after an Update
// invocation, not on every edge; the stop position (and hence the
// charged scan) is identical to a per-edge check.
//
//sage:hotpath
func denseWord(update func(s, d uint32, w int32) bool, from []uint64, flat *graph.Flat, sc *graph.Scratch, piece uint32, cw *uint64, base uint32) (int64, int64, uint64) {
	var scanned, words int64
	var ow uint64
	for m := *cw; m != 0; m &= m - 1 {
		tz := bits.TrailingZeros64(m)
		d, db := base|uint32(tz), uint64(1)<<tz
		p, q := uint32(0), uint32(denseFirstPiece)
		var stop uint32
	pieces:
		for {
			var nghs []uint32
			var ws []int32
			if piece == 0 {
				nghs, ws = flat.Full(d, sc)
			} else {
				nghs, ws = flat.Slice(d, p, q, sc)
			}
			for j, s := range nghs {
				if from[s>>6]&(1<<(s&63)) == 0 {
					continue
				}
				w := int32(1)
				if ws != nil {
					w = ws[j]
				}
				if update(s, d, w) {
					ow |= db
				}
				if *cw&db == 0 {
					stop = p + uint32(j) + 1
					break pieces
				}
			}
			stop = p + uint32(len(nghs))
			if piece == 0 || stop < q {
				break
			}
			p, q = q, (q/piece+1)*piece
		}
		scanned += int64(stop)
		words += flat.ScanCost(d, 0, stop)
	}
	return scanned, words, ow
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
		nghs, ws := flat.Read(env, w, u, 0, deg, pools.Scratch(w))
		if ws == nil {
			for j, d := range nghs {
				if condHas(ops.Cond, d) && ops.UpdateAtomic(u, d, 1) {
					out[base+int64(j)] = d
				} else {
					out[base+int64(j)] = sentinel
				}
			}
		} else {
			for j, d := range nghs {
				if condHas(ops.Cond, d) && ops.UpdateAtomic(u, d, ws[j]) {
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

// dedup removes duplicate ids: every id starts live in a ⌈n/64⌉-word
// bitmap, and the one occurrence whose Claim retires it is kept.
func dedup(n uint32, env *psam.Env, ids []uint32) []uint32 {
	live := frontier.AllSet(n)
	env.Alloc(int64(len(live)))
	defer env.Free(int64(len(live)))
	keep := make([]bool, len(ids))
	parallel.ForWorker(len(ids), 0, func(w, i int) {
		keep[i] = frontier.Claim(live, ids[i])
		env.StateWrite(w, 1)
	})
	return parallel.FilterIndex(ids, func(i int, _ uint32) bool { return keep[i] })
}
