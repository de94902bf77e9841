package gfilter

import (
	"math/bits"

	"sage/internal/graph"
)

// The methods below make *Filter implement graph.Adj over its *active*
// edges, so the traversal layer and whole algorithms (notably the
// connectivity call inside biconnectivity, §4.3.2) run directly on a
// filtered graph. Positions are active-edge indices in [0, ActiveDegree);
// the per-block offset metadata (§4.2.1) locates the block containing a
// given active position by binary search.

// NumVertices implements graph.Adj.
func (f *Filter) NumVertices() uint32 { return f.g.NumVertices() }

// NumEdges implements graph.Adj: the current number of active edges.
func (f *Filter) NumEdges() uint64 { return uint64(f.live.Load()) }

// Degree implements graph.Adj: the active degree.
func (f *Filter) Degree(v uint32) uint32 { return f.vtx[v].deg }

// Weighted implements graph.Adj: filters are used by the unweighted
// algorithms (biconnectivity, set cover, triangle counting, matching).
func (f *Filter) Weighted() bool { return false }

// BlockSize implements graph.Adj. Traversals over a filter chunk at the
// filter block granularity.
func (f *Filter) BlockSize() int { return int(f.fb) }

// EdgeAddr implements graph.Adj, delegating to the underlying graph.
//
//sage:hotpath
func (f *Filter) EdgeAddr(v uint32) int64 { return f.g.EdgeAddr(v) }

// ScanCost implements graph.Adj: scanning active positions [lo, hi)
// decodes the underlying blocks that contain them (whole blocks, §4.2.3)
// and reads the filter bits; the bit words are DRAM so only the underlying
// decode counts as NVRAM words.
func (f *Filter) ScanCost(v uint32, lo, hi uint32) int64 {
	vm := &f.vtx[v]
	if hi > vm.deg {
		hi = vm.deg
	}
	if hi <= lo || vm.numBlocks == 0 {
		return 0
	}
	b0 := f.findBlock(vm, lo)
	b1 := f.findBlock(vm, hi-1)
	if f.csr {
		// CSR: only the active positions are fetched (see decodeSlot),
		// plus one touch per block examined.
		return int64(hi-lo) + int64(b1-b0+1)
	}
	var cost int64
	deg0 := f.g.Degree(v)
	for b := b0; b <= b1; b++ {
		orig := f.meta[vm.start+uint64(b)].orig
		oLo := orig * f.fb
		oHi := min(oLo+f.fb, deg0)
		cost += f.g.ScanCost(v, oLo, oHi)
	}
	return cost
}

// findBlock returns the index (within v's live blocks) of the block
// containing active position pos: the last block whose offset <= pos.
//
//sage:hotpath
func (f *Filter) findBlock(vm *vtxMeta, pos uint32) uint32 {
	lo, hi := uint32(0), vm.numBlocks
	for lo < hi {
		mid := (lo + hi) / 2
		if f.meta[vm.start+uint64(mid)].offset > pos {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo - 1
}

// Slice implements graph.Adj over active positions: the active neighbors
// at [lo, hi) of v are gathered into s one filter block at a time, each
// underlying block read through the base graph's own Slice (an alias on
// CSR; a whole-block decode into s.Inner() otherwise, §4.2.3). It touches
// no per-worker filter state, so it is safe from any goroutine.
//
//sage:hotpath
func (f *Filter) Slice(v, lo, hi uint32, s *graph.Scratch) ([]uint32, []int32) {
	out := s.Nghs[:0]
	vm := &f.vtx[v]
	hi = min(hi, vm.deg)
	if lo < hi {
		for b := f.findBlock(vm, lo); b < vm.numBlocks; b++ {
			slot := vm.start + uint64(b)
			idx := f.meta[slot].offset
			if idx >= hi {
				break
			}
			blo := f.meta[slot].orig * f.fb
			nghs, _ := f.g.Slice(v, blo, blo+f.fb, s.Inner())
			for k, w := range f.blockWords(slot) {
				for ; w != 0 && idx < hi; idx++ {
					if idx >= lo {
						out = append(out, nghs[k*64+bits.TrailingZeros64(w)])
					}
					w &= w - 1
				}
			}
		}
	}
	s.Nghs = out
	return out, nil
}

// IntersectStats accumulates the two work measures of Table 4 /
// Appendix D.1: MergeSteps is the "intersection work" (directed wedge
// checks actually performed) and DecodedEdges is the "total work" (edges
// physically decoded from blocks, including inactive ones).
type IntersectStats struct {
	MergeSteps   int64
	DecodedEdges int64
}

// ActiveList materializes the active neighbors of v into dst (reused
// across calls), counting decode work: every block with at least one
// active bit decodes fully.
func (f *Filter) ActiveList(worker int, v uint32, dst []uint32, stats *IntersectStats) []uint32 {
	dst = dst[:0]
	vm := &f.vtx[v]
	addr := f.g.EdgeAddr(v)
	var decoded int64
	for s, end := vm.start, vm.start+uint64(vm.numBlocks); s < end; s++ {
		words := f.blockWords(s)
		live, _ := liveBits(words)
		if live == 0 {
			continue
		}
		nghs, d := f.decodeSlot(worker, v, addr, s, live)
		decoded += d
		dst = appendLive(dst, nghs, words)
	}
	if stats != nil {
		stats.DecodedEdges += decoded
	}
	return dst
}

// appendLive appends the neighbors of one decoded block whose bits are
// set, in adjacency order.
//
//sage:hotpath
func appendLive(dst, nghs []uint32, words []uint64) []uint32 {
	for k, w := range words {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, nghs[k*64+bits.TrailingZeros64(w)])
		}
	}
	return dst
}

// IntersectMarked appends a ∩ active(v) to out, for a sorted list a
// whose elements are exactly the set bits of mark (the caller's bitmap of
// ⌈n/64⌉ words), and returns it. It walks v's active neighbors in order
// with the tzcnt/blsr word loop of §4.2.3, testing each against mark with
// one load, and stops at the first one above a's last element: nothing
// later can be common. What it charges is the bill of ActiveList(v)
// followed by a two-pointer merge against a, not the shortcut's: every
// block of v holding an active bit is charged to the PSAM and to
// stats.DecodedEdges exactly as ActiveList charges it, including blocks
// past the stop, and stats.MergeSteps advances by the comparisons the
// plain merge would make (MergeSteps) — so Table 4's two work measures
// and the run's PSAM cost do not depend on how the intersection is
// evaluated.
//
//sage:hotpath
func (f *Filter) IntersectMarked(worker int, v uint32, a []uint32, mark []uint64, out []uint32, stats *IntersectStats) []uint32 {
	vm := &f.vtx[v]
	if vm.deg == 0 {
		return out // no live bits: nothing to charge, and the merge makes no step
	}
	dec := &f.scratch[worker].dec
	addr := f.g.EdgeAddr(v)
	common0 := len(out)
	var decoded, seen int64
	var bLast uint32
	done := len(a) == 0
	ranOut := true
	for s, end := vm.start, vm.start+uint64(vm.numBlocks); s < end; s++ {
		words := f.blockWords(s)
		live, top := liveBits(words)
		if live == 0 {
			continue
		}
		// The one unmarked call: PSAM accounting is deliberately not hotpath.
		lo, d := f.chargeSlot(worker, v, addr, s, live) //sage:allow hotalloc
		decoded += d
		if done {
			continue
		}
		nghs, _ := f.g.Slice(v, lo, lo+f.fb, dec)
		var n int64
		out, n = probeLive(out, nghs, words, mark, a[len(a)-1])
		seen += n
		if n < live {
			done, ranOut = true, false
		} else {
			bLast = nghs[top*64+63-bits.LeadingZeros64(words[top])]
		}
	}
	if stats != nil {
		stats.MergeSteps += MergeSteps(a, seen, int64(len(out)-common0), ranOut, bLast)
		stats.DecodedEdges += decoded
	}
	return out
}

// probeLive appends the live neighbors of one decoded block that are set
// in mark, in adjacency order, stopping at the first one above last. It
// returns out and how many live neighbors it visited (those at most last).
//
//sage:hotpath
func probeLive(out, nghs []uint32, words, mark []uint64, last uint32) ([]uint32, int64) {
	var seen int64
	for k, w := range words {
		for ; w != 0; w &= w - 1 {
			b := nghs[k*64+bits.TrailingZeros64(w)]
			if b > last {
				return out, seen
			}
			seen++
			if mark[b>>6]&(1<<(b&63)) != 0 {
				out = append(out, b)
			}
		}
	}
	return out, seen
}

// MergeSteps returns the comparisons the plain two-pointer merge of the
// sorted list a against a sorted, duplicate-free list b makes — one per
// iteration, stopping when either side runs out — from what a probe of b
// against a observes: seen, the elements of b at most a's last; common,
// |a ∩ b|; and whether b ran out before passing a's last, with bLast its
// last element. If b passed a's last, the merge consumed all of a and the
// seen prefix of b; otherwise it consumed all of b and the elements of a
// at most bLast, found by binary search. Each equal pair is one step that
// consumes one of each.
//
//sage:hotpath
func MergeSteps(a []uint32, seen, common int64, ranOut bool, bLast uint32) int64 {
	if len(a) == 0 || seen == 0 && ranOut {
		return 0
	}
	if !ranOut {
		return int64(len(a)) + seen - common
	}
	// A branch-free binary search for the last index whose element is at
	// most bLast (the outcome of each probe is a coin flip, so a branch
	// would mispredict half the time), then one more if it qualifies.
	i := 0
	for n := len(a); n > 1; n -= n / 2 {
		le := ^((int64(bLast) - int64(a[i+n/2])) >> 63) // all ones iff a[i+n/2] <= bLast
		i += int(le) & (n / 2)
	}
	if a[i] <= bLast {
		i++
	}
	return seen + int64(i) - common
}
