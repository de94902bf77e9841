// Package gfilter implements Sage's semi-asymmetric graph filter (§4.2):
// a bit-packed, DRAM-resident overlay over the read-only NVRAM graph that
// supports batch edge deletions without writing to the graph itself. Each
// vertex's adjacency is divided into blocks of FB edges; the filter keeps
// one bit per edge, plus two words of metadata per block (the original
// block id and the count of active edges in preceding blocks) and the
// per-vertex degree/extent. Empty blocks are physically compacted once a
// constant fraction of a vertex's blocks die, which keeps iteration
// work-efficient. Total space is O(n + m/64) words — the relaxed PSAM
// budget. The paper's per-vertex dirty bits, which mark the far endpoint
// of every removed edge, are not kept: no algorithm here reads them, and
// setting one cost every removal an atomic OR.
//
// The filter itself implements graph.Adj, so every traversal and algorithm
// in this repository runs unchanged over a filtered graph; this is how
// biconnectivity "optimizes a call to connectivity on the input graph with
// a large subset of the edges removed" (§4.3.2). Triangle and k-clique
// counting intersect with IntersectMarked, which probes a vertex's live
// bits against the caller's bitmap of the other list and bills what
// ActiveList followed by a two-pointer merge would.
package gfilter

import (
	"math/bits"
	"sync/atomic"

	"sage/internal/frontier"
	"sage/internal/graph"
	"sage/internal/parallel"
	"sage/internal/psam"
)

// blockMeta is the two words of per-block metadata (§4.2.1).
type blockMeta struct {
	orig   uint32 // original block id within the vertex's adjacency
	offset uint32 // number of active edges in preceding blocks of the vertex
}

// vtxMeta is the per-vertex filter state.
type vtxMeta struct {
	start     uint64 // first arena slot of the vertex's blocks
	numBlocks uint32 // live blocks (may shrink below the initial count)
	deg       uint32 // active edges
}

// Filter is a mutable edge-subset view of an immutable graph.
type Filter struct {
	g    graph.Adj
	env  *psam.Env
	csr  bool   // g is uncompressed: a block is a plain range of the adjacency
	fb   uint32 // filter block size in edges (multiple of 64)
	wpb  uint32 // words per block = fb/64
	bits []uint64
	meta []blockMeta
	vtx  []vtxMeta
	live atomic.Int64 // maintained active-edge count (updated in packs)

	scratch [parallel.MaxWorkers]workerScratch
}

type workerScratch struct {
	dec    graph.Scratch // decoded block neighbors
	counts []uint32      // per-block live counts during a pack
	_      [40]byte
}

// packThresholdNum/Den: blocks are physically compacted when live blocks
// fall below 3/4 of the current count ("a constant fraction", §4.2.2).
const packThresholdNum, packThresholdDen = 3, 4

// New builds a filter over g with all edges active. fb is rounded up to a
// multiple of 64 bits; for compressed graphs it must equal the compression
// block size (§4.2.1), which New enforces.
func New(g graph.Adj, fb int, env *psam.Env) *Filter {
	if cbs := g.BlockSize(); cbs != 0 {
		if fb != 0 && fb != cbs {
			panic("gfilter: filter block size must equal the compression block size")
		}
		fb = cbs
	}
	if fb <= 0 {
		fb = 64
	}
	fb = (fb + 63) / 64 * 64
	n := g.NumVertices()
	f := &Filter{g: g, env: env, csr: g.BlockSize() == 0, fb: uint32(fb), wpb: uint32(fb / 64)}

	// Each vertex's block count is scanned in place into its arena start:
	// a block-local exclusive scan here, the block's offset added below.
	const grain = parallel.DefaultGrain
	f.vtx = make([]vtxMeta, n)
	blockSums := make([]uint64, (int(n)+grain-1)/grain)
	parallel.ForBlocks(int(n), grain, func(_, lo, hi int) {
		var acc uint64
		for i := lo; i < hi; i++ {
			deg := g.Degree(uint32(i))
			numB := (deg + f.fb - 1) / f.fb
			f.vtx[i] = vtxMeta{start: acc, numBlocks: numB, deg: deg}
			acc += uint64(numB)
		}
		blockSums[lo/grain] = acc
	})
	totalBlocks := parallel.Scan(blockSums)
	f.bits = make([]uint64, totalBlocks*uint64(f.wpb))
	f.meta = make([]blockMeta, totalBlocks)
	env.Alloc(f.SizeWords())

	parallel.For(int(n), 16, func(i int) {
		vm := &f.vtx[i]
		vm.start += blockSums[i/grain]
		deg, numB := vm.deg, vm.numBlocks
		for b := uint32(0); b < numB; b++ {
			f.meta[vm.start+uint64(b)] = blockMeta{orig: b, offset: b * f.fb}
			w := f.blockWords(vm.start + uint64(b))
			edgesInBlock := min(f.fb, deg-b*f.fb)
			for k := uint32(0); k < f.wpb; k++ {
				inWord := int32(edgesInBlock) - int32(k*64)
				switch {
				case inWord >= 64:
					w[k] = ^uint64(0)
				case inWord > 0:
					w[k] = (uint64(1) << inWord) - 1
				default:
					w[k] = 0
				}
			}
		}
	})
	f.live.Store(int64(g.NumEdges()))
	return f
}

// blockWords returns the bit words of arena slot s.
//
//sage:hotpath
func (f *Filter) blockWords(s uint64) []uint64 {
	return f.bits[s*uint64(f.wpb) : (s+1)*uint64(f.wpb)]
}

// FB returns the filter block size in edges.
func (f *Filter) FB() int { return int(f.fb) }

// ActiveEdges returns the maintained count of active edges.
func (f *Filter) ActiveEdges() int64 { return f.live.Load() }

// SizeWords reports the filter's DRAM footprint in words (for the §4.2.3
// memory-usage comparison: 4.6–8.1x smaller than the uncompressed graph).
func (f *Filter) SizeWords() int64 {
	return int64(len(f.bits)) + 2*int64(len(f.meta)) + 3*int64(len(f.vtx))
}

// chargeSlot charges the NVRAM read of the block behind filter slot s of
// v (whose edges start at word address addr), which holds live set bits,
// and returns the block's first adjacency position and the number of
// edges the read decodes — Table 4's "total work". For compressed graphs
// the whole block is decoded even if few bits are live (§4.2.3). For
// uncompressed graphs the block is a plain range of the adjacency and
// only the active positions are charged, mirroring the word-by-word
// intrinsic loop of §4.2.3 that random-accesses just the edges whose bits
// are set.
func (f *Filter) chargeSlot(worker int, v uint32, addr int64, s uint64, live int64) (lo uint32, decoded int64) {
	lo = f.meta[s].orig * f.fb
	cost := live
	decoded = live
	if !f.csr {
		hi := min(lo+f.fb, f.g.Degree(v))
		cost = f.g.ScanCost(v, lo, hi)
		decoded = int64(hi - lo)
	}
	f.env.GraphRead(worker, addr+int64(lo), cost)
	return lo, decoded
}

// decodeSlot charges slot s of v (chargeSlot) and fetches the underlying
// neighbors behind it, indexed by within-block position: an alias on CSR,
// one whole-block decode into the worker's scratch otherwise.
func (f *Filter) decodeSlot(worker int, v uint32, addr int64, s uint64, live int64) (nghs []uint32, decoded int64) {
	lo, decoded := f.chargeSlot(worker, v, addr, s, live)
	nghs, _ = f.g.Slice(v, lo, lo+f.fb, &f.scratch[worker].dec)
	return nghs, decoded
}

// liveBits counts the set bits of a block and returns the index of its
// last non-zero word (-1 for a dead block).
//
//sage:hotpath
func liveBits(words []uint64) (live int64, top int) {
	top = -1
	for k, w := range words {
		if w != 0 {
			live += int64(bits.OnesCount64(w))
			top = k
		}
	}
	return live, top
}

// packBlock is the pack inner loop over one decoded block: the
// tzcnt/blsr-style word loop of §4.2.3 clears the bit of every live
// neighbor failing pred(v, ngh) and returns the block's surviving and
// removed counts.
//
//sage:hotpath
func packBlock(words []uint64, nghs []uint32, v uint32, pred func(u, ngh uint32) bool) (kept uint32, removed int64) {
	for k, w := range words {
		for w != 0 {
			idx := bits.TrailingZeros64(w)
			w &= w - 1
			ngh := nghs[k*64+idx]
			if pred(v, ngh) {
				kept++
			} else {
				words[k] &^= uint64(1) << idx
				removed++
			}
		}
	}
	return kept, removed
}

// packVertex is PackVertex without the shared live-count update: the
// caller owns folding the returned removal count into f.live.
func (f *Filter) packVertex(worker int, v uint32, pred func(u, ngh uint32) bool) (uint32, int64) {
	vm := &f.vtx[v]
	if vm.numBlocks == 0 {
		return 0, 0
	}
	sc := &f.scratch[worker]
	if cap(sc.counts) < int(vm.numBlocks) {
		sc.counts = make([]uint32, vm.numBlocks)
	}
	counts := sc.counts[:vm.numBlocks]

	var removed int64
	liveBlocks := uint32(0)
	addr := f.g.EdgeAddr(v)
	for bi := uint32(0); bi < vm.numBlocks; bi++ {
		s := vm.start + uint64(bi)
		words := f.blockWords(s)
		cnt := uint32(0)
		if live, _ := liveBits(words); live > 0 {
			nghs, _ := f.decodeSlot(worker, v, addr, s, live)
			var r int64
			cnt, r = packBlock(words, nghs, v, pred)
			removed += r
			f.env.StateWrite(worker, int64(f.wpb))
		}
		counts[bi] = cnt
		if cnt > 0 {
			liveBlocks++
		}
	}

	// Compact dead blocks when a constant fraction died (§4.2.2).
	if liveBlocks < vm.numBlocks*packThresholdNum/packThresholdDen || liveBlocks == 0 {
		wr := uint32(0)
		for bi := uint32(0); bi < vm.numBlocks; bi++ {
			if counts[bi] == 0 {
				continue
			}
			if wr != bi {
				src := vm.start + uint64(bi)
				dst := vm.start + uint64(wr)
				copy(f.blockWords(dst), f.blockWords(src))
				f.meta[dst] = f.meta[src]
				counts[wr] = counts[bi]
			}
			wr++
		}
		vm.numBlocks = wr
		f.env.StateWrite(worker, int64(wr)*int64(f.wpb+2))
	}

	// Recompute offsets (prefix sum over live counts) and the degree.
	total := uint32(0)
	for bi := uint32(0); bi < vm.numBlocks; bi++ {
		f.meta[vm.start+uint64(bi)].offset = total
		total += counts[bi]
	}
	vm.deg = total
	f.env.StateWrite(worker, int64(vm.numBlocks))
	return total, removed
}

// PackVertex removes the active edges of v for which pred(v, ngh) is
// false (§4.2.2): it rescans live blocks, clears failing bits, recomputes
// per-block offsets, compacts blocks when enough die, and updates the
// degree. It returns the new active degree and the number of edges
// removed. PackVertex for distinct
// vertices may run concurrently; a caller packing many vertices should
// prefer EdgeMapPack or FilterEdges, which touch the shared live count
// once per scheduling block instead of once per vertex.
func (f *Filter) PackVertex(worker int, v uint32, pred func(u, ngh uint32) bool) (uint32, int64) {
	deg, removed := f.packVertex(worker, v, pred)
	if removed > 0 {
		f.live.Add(-removed)
	}
	return deg, removed
}

// maxPackGrain bounds the vertices a worker packs per scheduling block:
// enough to amortise the block claim and the one shared live-count update
// the block ends with, small enough that the n/maxPackGrain blocks of a
// whole-graph pack still balance a skewed degree sequence.
const maxPackGrain = 64

// PackAll is the bulk-pack schedule, shared with the GBBS baseline's
// mutable filter so the Figure 1/7 comparisons differ in where packed
// edges are written and in nothing else. It calls pack for every vertex
// of sp (every vertex in [0, n) when sp is nil) in parallel, records new
// degrees in degs when it is non-nil, and folds each scheduling block's
// removals into live with one atomic add — so the count is exact whenever
// no pack is running and workers share no cache line per vertex. A short
// list of (possibly huge) vertices still gets a block per vertex.
func PackAll(n int, sp, degs []uint32, live *atomic.Int64, pack func(worker int, v uint32) (deg uint32, removed int64)) {
	grain := max(1, min(maxPackGrain, n/(8*parallel.Workers())))
	parallel.ForBlocks(n, grain, func(w, lo, hi int) {
		var removed int64
		for i := lo; i < hi; i++ {
			v := uint32(i)
			if sp != nil {
				v = sp[i]
			}
			d, r := pack(w, v)
			if degs != nil {
				degs[i] = d
			}
			removed += r
		}
		if removed > 0 {
			live.Add(-removed)
		}
	})
}

// EdgeMapPack packs every vertex in vs in parallel (§4.2.2) and returns a
// subset over the same vertices augmented with their new degrees (aligned
// with the returned id slice).
func (f *Filter) EdgeMapPack(vs *frontier.VertexSubset, pred func(u, ngh uint32) bool) (*frontier.VertexSubset, []uint32) {
	sp := vs.Sparse()
	degs := make([]uint32, len(sp))
	PackAll(len(sp), sp, degs, &f.live, func(w int, v uint32) (uint32, int64) { return f.packVertex(w, v, pred) })
	return frontier.FromSparse(vs.N(), sp), degs
}

// FilterEdges packs all vertices (§4.2.2) and returns the number of
// active edges remaining.
func (f *Filter) FilterEdges(pred func(u, ngh uint32) bool) int64 {
	PackAll(int(f.g.NumVertices()), nil, nil, &f.live, func(w int, v uint32) (uint32, int64) { return f.packVertex(w, v, pred) })
	return f.live.Load()
}
