// Package frontier provides the vertexSubset abstraction of Ligra (§2):
// a subset of vertices with dual sparse (id list) and dense (bitmap)
// representations, converted lazily as the traversal layer switches
// between push- and pull-based edgeMaps.
//
// The dense form is a packed bitmap of ⌈n/64⌉ words: vertex v is bit
// v&63 of word v>>6, and the bits of the last word past n are always
// clear. That is the O(n/64)-word frontier the PSAM's DRAM budget (§3)
// prices, and it lets every consumer work a word at a time: the degree
// sum and the dense→sparse pack visit only set bits, and the pack emits
// ids in increasing order.
//
// The same form carries every other vertex set (edgeMap's condition C, the
// duplicate filter, live sets, intersection marks, the overlay's mask):
// AllSet fills one, Clear retires a vertex its owner alone touches, Claim
// one that workers race for (reporting the winner), Set and Has set and
// test a bit atomically, and Mark and Unmark fill and empty an owned one.
package frontier

import (
	"math/bits"
	"sync/atomic"

	"sage/internal/parallel"
)

// VertexSubset is a subset of the vertices [0, n). It is either sparse
// (an unordered id list) or dense (a bitmap); conversions cache nothing
// and are performed by the traversal layer when switching directions.
type VertexSubset struct {
	n      uint32
	sparse []uint32
	dense  []uint64
	size   int
	dFlag  bool
}

// Words returns the length of the dense bitmap over n vertices: ⌈n/64⌉.
func Words(n uint32) int { return int((uint64(n) + 63) / 64) }

// wordGrain is the number of bitmap words one parallel block covers:
// 16 words are 1,024 vertices, the default grain of a per-vertex loop.
const wordGrain = 16

// Empty returns an empty subset over n vertices.
func Empty(n uint32) *VertexSubset {
	return &VertexSubset{n: n, sparse: []uint32{}}
}

// Single returns the subset {v}.
func Single(n, v uint32) *VertexSubset {
	return &VertexSubset{n: n, sparse: []uint32{v}, size: 1}
}

// FromSparse wraps an id list (takes ownership of ids).
func FromSparse(n uint32, ids []uint32) *VertexSubset {
	return &VertexSubset{n: n, sparse: ids, size: len(ids)}
}

// FromDense wraps a bitmap of Words(n) words whose bits past n are clear
// (takes ownership). If size is negative it is computed as the bitmap's
// popcount.
func FromDense(n uint32, bitmap []uint64, size int) *VertexSubset {
	if size < 0 {
		size = parallel.ReduceSum(len(bitmap), 0, func(i int) int {
			return bits.OnesCount64(bitmap[i])
		})
	}
	return &VertexSubset{n: n, dense: bitmap, size: size, dFlag: true}
}

// All returns the subset containing every vertex.
func All(n uint32) *VertexSubset {
	return FromDense(n, AllSet(n), int(n))
}

// AllSet returns a bitmap of Words(n) words with the bits of [0, n) set
// and the bits past n clear.
func AllSet(n uint32) []uint64 {
	bitmap := make([]uint64, Words(n))
	parallel.Fill(bitmap, ^uint64(0))
	if tail := n & 63; tail != 0 {
		bitmap[len(bitmap)-1] = 1<<tail - 1
	}
	return bitmap
}

// Clear clears v's bit with a plain write. The caller must own v's word:
// no other goroutine may read or write it meanwhile, as in the pull scan,
// where one worker owns a block of whole words.
//
//sage:hotpath
func Clear(bitmap []uint64, v uint32) {
	bitmap[v>>6] &^= 1 << (v & 63)
}

// Claim atomically clears v's bit and reports whether this call cleared
// it: of any number of concurrent claims on v, exactly one returns true.
// It is a compare-and-swap loop rather than atomic.AndUint64: go1.24.0 on
// amd64 miscompiles atomic.AndUint64(p, ^b)&b once it is inlined into a
// loop closure — the intrinsic's scratch register overwrites a live index,
// and the closure panics with an index out of range.
//
//sage:hotpath
func Claim(bitmap []uint64, v uint32) bool {
	p, b := &bitmap[v>>6], uint64(1)<<(v&63)
	for {
		old := atomic.LoadUint64(p)
		if old&b == 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(p, old, old&^b) {
			return true
		}
	}
}

// Set atomically sets v's bit, so workers may set bits of one word at
// once while others test them with Has.
//
//sage:hotpath
func Set(bitmap []uint64, v uint32) {
	atomic.OrUint64(&bitmap[v>>6], 1<<(v&63))
}

// Has reports whether v's bit is set, loading its word atomically. No bit
// of a nil bitmap, or past the bitmap's end, is set.
//
//sage:hotpath
func Has(bitmap []uint64, v uint32) bool {
	w := v >> 6
	return uint64(w) < uint64(len(bitmap)) && atomic.LoadUint64(&bitmap[w])&(1<<(v&63)) != 0
}

// Mark sets the bit of every id with plain writes: the caller owns them.
func Mark(bitmap []uint64, ids []uint32) {
	for _, v := range ids {
		bitmap[v>>6] |= 1 << (v & 63)
	}
}

// Unmark empties a bitmap whose set bits are exactly ids' by zeroing the
// words that hold them.
func Unmark(bitmap []uint64, ids []uint32) {
	for _, v := range ids {
		bitmap[v>>6] = 0
	}
}

// N returns the universe size.
func (s *VertexSubset) N() uint32 { return s.n }

// Size returns |S|.
func (s *VertexSubset) Size() int { return s.size }

// IsEmpty reports whether the subset is empty.
func (s *VertexSubset) IsEmpty() bool { return s.size == 0 }

// IsDense reports the current representation.
func (s *VertexSubset) IsDense() bool { return s.dFlag }

// Sparse returns the id list, converting from dense if necessary, in
// which case the ids are in increasing order. The conversion is a parallel
// pack over the bitmap: a popcount per block of words, a scan of the
// counts, and a trailing-zeros walk that writes each block's ids at its
// offset. The result must be treated as read-only.
func (s *VertexSubset) Sparse() []uint32 {
	if !s.dFlag {
		return s.sparse
	}
	if s.sparse == nil {
		s.sparse = pack(s.dense)
	}
	return s.sparse
}

// Dense returns the bitmap, converting from sparse if necessary. A list
// the parallel loop would run inline (at most one grain of ids, or one
// worker) is Marked with plain ORs; a longer one takes one Set per id,
// since ids that share a word may be set by different workers.
func (s *VertexSubset) Dense() []uint64 {
	if s.dFlag {
		return s.dense
	}
	if s.dense == nil {
		bitmap := make([]uint64, Words(s.n))
		if len(s.sparse) <= parallel.DefaultGrain || parallel.Workers() == 1 {
			Mark(bitmap, s.sparse)
		} else {
			parallel.For(len(s.sparse), 0, func(i int) { Set(bitmap, s.sparse[i]) })
		}
		s.dense = bitmap
	}
	return s.dense
}

// ForEach calls fn for every member, in parallel.
func (s *VertexSubset) ForEach(fn func(v uint32)) {
	if s.dFlag {
		parallel.For(len(s.dense), wordGrain, func(i int) {
			for w := s.dense[i]; w != 0; w &= w - 1 {
				fn(uint32(i<<6 | bits.TrailingZeros64(w)))
			}
		})
		return
	}
	parallel.For(len(s.sparse), 0, func(i int) { fn(s.sparse[i]) })
}

// Contains reports membership. On a sparse subset it scans the id list,
// so it is intended for tests, not hot paths.
func (s *VertexSubset) Contains(v uint32) bool {
	if s.dFlag {
		return Has(s.dense, v)
	}
	for _, u := range s.sparse {
		if u == v {
			return true
		}
	}
	return false
}

// pack returns the positions of bitmap's set bits in increasing order.
func pack(bitmap []uint64) []uint32 {
	nBlocks := (len(bitmap) + wordGrain - 1) / wordGrain
	counts := make([]int, nBlocks)
	parallel.ForBlocks(len(bitmap), wordGrain, func(_, lo, hi int) {
		c := 0
		for _, w := range bitmap[lo:hi] {
			c += bits.OnesCount64(w)
		}
		counts[lo/wordGrain] = c
	})
	out := make([]uint32, parallel.Scan(counts))
	parallel.ForBlocks(len(bitmap), wordGrain, func(_, lo, hi int) {
		emit(out[counts[lo/wordGrain]:], bitmap[lo:hi], uint32(lo)<<6)
	})
	return out
}

// emit writes base plus the position of every set bit of words into dst,
// in increasing order.
//
//sage:hotpath
func emit(dst []uint32, words []uint64, base uint32) {
	o := 0
	for i, w := range words {
		for ; w != 0; w &= w - 1 {
			dst[o] = base + uint32(i<<6|bits.TrailingZeros64(w))
			o++
		}
	}
}
