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

// AvgDegree implements graph.Adj.
func (f *Filter) AvgDegree() uint32 {
	n := f.g.NumVertices()
	if n == 0 {
		return 1
	}
	d := uint32(uint64(f.live.Load()) / uint64(n))
	if d < 1 {
		d = 1
	}
	return d
}

// Weighted implements graph.Adj: filters are used by the unweighted
// algorithms (biconnectivity, set cover, triangle counting, matching).
func (f *Filter) Weighted() bool { return false }

// BlockSize implements graph.Adj. Traversals over a filter chunk at the
// filter block granularity.
func (f *Filter) BlockSize() int { return int(f.fb) }

// EdgeAddr implements graph.Adj, delegating to the underlying graph.
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
	if f.g.BlockSize() == 0 {
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
	for bi := uint32(0); bi < vm.numBlocks; bi++ {
		s := vm.start + uint64(bi)
		words := f.blockWords(s)
		empty := true
		for _, w := range words {
			if w != 0 {
				empty = false
				break
			}
		}
		if empty {
			continue
		}
		nghs := f.decodeSlot(worker, v, s)
		if stats != nil {
			if f.g.BlockSize() == 0 {
				// CSR fast path fetches only active edges.
				for _, w := range words {
					stats.DecodedEdges += int64(bits.OnesCount64(w))
				}
			} else {
				stats.DecodedEdges += int64(len(nghs))
			}
		}
		for k, w := range words {
			for w != 0 {
				t := bits.TrailingZeros64(w)
				w &= w - 1
				pos := k*64 + t
				if pos < len(nghs) {
					dst = append(dst, nghs[pos])
				}
			}
		}
	}
	return dst
}

// IntersectSorted counts the common elements of two sorted lists,
// charging one merge step per comparison.
func IntersectSorted(a, b []uint32, stats *IntersectStats) int64 {
	var count, steps int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		steps++
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			count++
			i++
			j++
		}
	}
	if stats != nil {
		stats.MergeSteps += steps
	}
	return count
}
