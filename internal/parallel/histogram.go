package parallel

import (
	"math/bits"
	"slices"
)

// KeyCount is one output row of a histogram: a key and the number of times
// it occurred in the input multiset.
type KeyCount struct {
	Key   uint32
	Count uint32
}

// HistScratch holds what HistogramInPlace keeps from call to call, so a
// peeling loop's histograms allocate only when a round outgrows every
// earlier one. The zero value is ready to use; one scratch serves one
// call at a time.
type HistScratch struct {
	buf    []uint32 // the radix sort's scatter buffer
	counts []int    // and its block × digit counters
	offs   []int    // rows per block, then each block's first row
	out    []KeyCount
}

// Words returns the scratch's footprint, a word per element.
func (s *HistScratch) Words() int64 {
	return int64(cap(s.buf) + cap(s.counts) + cap(s.offs) + cap(s.out))
}

// histBlock is the number of sorted keys one row-counting block covers.
const histBlock = 4 * DefaultGrain

// HistogramInPlace computes, for a multiset of uint32 keys, the distinct
// keys and their multiplicities, in ascending key order. It is the sparse
// histogram primitive of the k-core, k-truss and densest-subgraph peeling
// loops (§4.3.4): the keys are radix sorted on as many bits as the largest
// one has (two passes for the vertex ids of a graph below 16M vertices,
// so O(k) work for k keys, against the expected O(k) of the semisort GBBS
// uses), and every block of the sorted keys emits the runs that start in
// it. Intermediate space is O(k) — proportional to the frontier's edge
// count, never to m.
//
// keys is sorted as a side effect. The returned rows live in s and are
// valid until its next use.
func HistogramInPlace(keys []uint32, s *HistScratch) []KeyCount {
	k := len(keys)
	if k == 0 {
		return nil
	}
	if k < sortSerialCutoff {
		slices.Sort(keys)
	} else {
		maxKey := ReduceMax(k, 0, 0, func(i int) uint32 { return keys[i] })
		s.buf = Resize(s.buf, k)
		radixSort(keys, s.buf, &s.counts, bits.Len32(maxKey), func(x uint32) uint64 { return uint64(x) })
	}
	s.offs = Resize(s.offs, ceilDiv(k, histBlock))
	offs := s.offs
	ForBlocks(k, histBlock, func(_, lo, hi int) {
		offs[lo/histBlock] = emitRuns(nil, keys, lo, hi)
	})
	s.out = Resize(s.out, Scan(offs))
	out := s.out
	ForBlocks(k, histBlock, func(_, lo, hi int) {
		emitRuns(out[offs[lo/histBlock]:], keys, lo, hi)
	})
	return out
}

// emitRuns writes one (key, count) row for every run of the sorted keys
// that starts in [lo, hi) — following it past hi if need be — and returns
// the number of rows. A nil out only counts.
//
//sage:hotpath
func emitRuns(out []KeyCount, sorted []uint32, lo, hi int) int {
	rows := 0
	for i := lo; i < hi; i++ {
		if i > 0 && sorted[i] == sorted[i-1] {
			continue
		}
		if out != nil {
			j := i + 1
			for j < len(sorted) && sorted[j] == sorted[i] {
				j++
			}
			out[rows].Key, out[rows].Count = sorted[i], uint32(j-i)
		}
		rows++
	}
	return rows
}
