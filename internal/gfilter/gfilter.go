// Package gfilter implements Sage's semi-asymmetric graph filter (§4.2):
// a bit-packed, DRAM-resident overlay over the read-only NVRAM graph that
// supports batch edge deletions without writing to the graph itself. Each
// vertex's adjacency is divided into blocks of FB edges; the filter keeps
// one bit per edge, plus two words of metadata per block (the original
// block id and the count of active edges in preceding blocks), the
// per-vertex degree/extent, and per-vertex dirty bits. Empty blocks are
// physically compacted once a constant fraction of a vertex's blocks die,
// which keeps iteration work-efficient. Total space is O(n + m/64) words
// — the relaxed PSAM budget.
//
// The filter itself implements graph.Adj, so every traversal and algorithm
// in this repository runs unchanged over a filtered graph; this is how
// biconnectivity "optimizes a call to connectivity on the input graph with
// a large subset of the edges removed" (§4.3.2).
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
	g     graph.Adj
	env   *psam.Env
	fb    uint32 // filter block size in edges (multiple of 64)
	wpb   uint32 // words per block = fb/64
	bits  []uint64
	meta  []blockMeta
	vtx   []vtxMeta
	dirty *parallel.Bitset
	live  atomic.Int64 // maintained active-edge count (updated in packs)

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
	f := &Filter{g: g, env: env, fb: uint32(fb), wpb: uint32(fb / 64)}

	nb := make([]uint64, n+1)
	parallel.For(int(n), 0, func(i int) {
		nb[i] = uint64((g.Degree(uint32(i)) + f.fb - 1) / f.fb)
	})
	totalBlocks := parallel.Scan(nb)
	f.bits = make([]uint64, totalBlocks*uint64(f.wpb))
	f.meta = make([]blockMeta, totalBlocks)
	f.vtx = make([]vtxMeta, n)
	f.dirty = parallel.NewBitset(int(n))
	env.Alloc(int64(len(f.bits)) + 2*int64(totalBlocks) + 3*int64(n) + int64(f.dirty.Words())/2)

	parallel.For(int(n), 16, func(i int) {
		v := uint32(i)
		deg := g.Degree(v)
		numB := uint32(nb[uint32(i)+1] - nb[i])
		f.vtx[i] = vtxMeta{start: nb[i], numBlocks: numB, deg: deg}
		for b := uint32(0); b < numB; b++ {
			f.meta[nb[i]+uint64(b)] = blockMeta{orig: b, offset: b * f.fb}
			w := f.blockWords(nb[i] + uint64(b))
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

// Dirty exposes the per-vertex dirty bits: vertex u is marked when an edge
// (v, u) was deleted during a pack of v, so u's adjacency may reference
// edges its own filter side has not yet dropped.
func (f *Filter) Dirty() *parallel.Bitset { return f.dirty }

// SizeWords reports the filter's DRAM footprint in words (for the §4.2.3
// memory-usage comparison: 4.6–8.1x smaller than the uncompressed graph).
func (f *Filter) SizeWords() int64 {
	return int64(len(f.bits)) + 2*int64(len(f.meta)) + 3*int64(len(f.vtx)) + int64(f.dirty.Words())/2
}

// decodeSlot fetches the underlying neighbors behind filter slot s of v,
// indexed by within-block position, and charges the NVRAM read. For
// compressed graphs the whole block is decoded even if few bits are live
// (§4.2.3) — the "total work" Table 4 measures. For uncompressed graphs
// the block is a plain range of the adjacency and only the active
// positions are charged, mirroring the word-by-word intrinsic loop of
// §4.2.3 that random-accesses just the edges whose bits are set.
func (f *Filter) decodeSlot(worker int, v uint32, s uint64) []uint32 {
	lo := f.meta[s].orig * f.fb
	var cost int64
	if f.g.BlockSize() == 0 {
		for _, w := range f.blockWords(s) {
			cost += int64(bits.OnesCount64(w))
		}
	} else {
		cost = f.g.ScanCost(v, lo, min(lo+f.fb, f.g.Degree(v)))
	}
	f.env.GraphRead(worker, f.g.EdgeAddr(v)+int64(lo), cost)
	nghs, _ := f.g.Slice(v, lo, lo+f.fb, &f.scratch[worker].dec)
	return nghs
}

// IterActive calls fn for every active neighbor of v in adjacency order,
// stopping early if fn returns false. Charges reads for every decoded
// block.
func (f *Filter) IterActive(worker int, v uint32, fn func(ngh uint32) bool) {
	vm := &f.vtx[v]
	for s := vm.start; s < vm.start+uint64(vm.numBlocks); s++ {
		if !f.iterBlock(worker, v, s, fn) {
			return
		}
	}
}

// iterBlock visits the active edges of arena slot s using the
// tzcnt/blsr-style word loop of §4.2.3.
func (f *Filter) iterBlock(worker int, v uint32, s uint64, fn func(ngh uint32) bool) bool {
	words := f.blockWords(s)
	empty := true
	for _, w := range words {
		if w != 0 {
			empty = false
			break
		}
	}
	if empty {
		return true
	}
	nghs := f.decodeSlot(worker, v, s)
	f.env.StateRead(worker, int64(f.wpb))
	for k, w := range words {
		for w != 0 {
			idx := bits.TrailingZeros64(w)
			w &= w - 1
			pos := k*64 + idx
			if pos < len(nghs) && !fn(nghs[pos]) {
				return false
			}
		}
	}
	return true
}

// PackVertex removes the active edges of v for which pred(v, ngh) is
// false (§4.2.2): it rescans live blocks, clears failing bits, marks the
// removed neighbors dirty, recomputes per-block offsets, compacts blocks
// when enough die, and updates the degree. It returns the new active
// degree and the number of edges removed. PackVertex for distinct
// vertices may run concurrently.
func (f *Filter) PackVertex(worker int, v uint32, pred func(u, ngh uint32) bool) (uint32, int64) {
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
	for bi := uint32(0); bi < vm.numBlocks; bi++ {
		s := vm.start + uint64(bi)
		words := f.blockWords(s)
		cnt := uint32(0)
		hasBits := false
		for _, w := range words {
			if w != 0 {
				hasBits = true
				break
			}
		}
		if hasBits {
			nghs := f.decodeSlot(worker, v, s)
			for k := range words {
				w := words[k]
				for w != 0 {
					idx := bits.TrailingZeros64(w)
					w &= w - 1
					pos := k*64 + idx
					if pos >= len(nghs) {
						continue
					}
					if pred(v, nghs[pos]) {
						cnt++
					} else {
						words[k] &^= uint64(1) << idx
						f.dirty.AtomicSet(nghs[pos])
						removed++
					}
				}
			}
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
	if removed > 0 {
		f.live.Add(-removed)
	}
	f.env.StateWrite(worker, int64(vm.numBlocks))
	return total, removed
}

// EdgeMapPack packs every vertex in vs in parallel (§4.2.2) and returns a
// subset over the same vertices augmented with their new degrees (aligned
// with the returned id slice).
func (f *Filter) EdgeMapPack(vs *frontier.VertexSubset, pred func(u, ngh uint32) bool) (*frontier.VertexSubset, []uint32) {
	sp := vs.Sparse()
	degs := make([]uint32, len(sp))
	parallel.ForWorker(len(sp), 1, func(w, i int) {
		nd, _ := f.PackVertex(w, sp[i], pred)
		degs[i] = nd
	})
	return frontier.FromSparse(vs.N(), sp), degs
}

// FilterEdges packs all vertices (§4.2.2) and returns the number of
// active edges remaining.
func (f *Filter) FilterEdges(pred func(u, ngh uint32) bool) int64 {
	n := f.g.NumVertices()
	parallel.ForWorker(int(n), 1, func(w, i int) {
		f.PackVertex(w, uint32(i), pred)
	})
	return f.live.Load()
}
