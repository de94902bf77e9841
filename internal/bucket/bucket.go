// Package bucket implements the Julienne bucketing structure in its
// semi-asymmetric form (Appendix B): a dynamic mapping from vertices to
// integer priorities supporting bulk priority updates and extraction of
// the next non-empty bucket. Following Julienne's practical variant, a
// constant number (127) of "open" buckets covering the priorities nearest
// the processing frontier are materialized, with all other vertices parked
// in an overflow bucket that is re-bucketed when the window is exhausted.
//
// Deletion is semi-eager (Appendix B): moved vertices stay in their old
// bucket's array as stale entries, each bucket tracks its dead count, and
// a bucket is physically packed once dead entries outnumber live ones —
// this bounds the structure's small-memory footprint by O(n) words, where
// the fully lazy variant would need O(#updates) = O(m). A vertex that
// returns to a bucket before its stale entry there is packed away has two
// entries in it; extraction claims each vertex once.
//
// Bulk moves — UpdateBatch and the re-bucketing of every live vertex when
// the window is exhausted — share one kernel: a parallel pass writes each
// vertex's destination slot (one of the 127 open buckets or overflow)
// into a byte array, and a 128-slot counting sort (per-block slot counts,
// a slot-major scan that also grows the destination arrays, a scatter)
// places the vertices. Vertices land in batch order within a slot, so the
// structure's contents do not depend on the worker count, and the slot
// and count buffers are kept between calls.
package bucket

import (
	"slices"
	"sync/atomic"

	"sage/internal/parallel"
)

// Order selects whether NextBucket yields smallest or largest priorities
// first (wBFS and k-core peel increasing, set cover decreasing).
type Order int

const (
	Increasing Order = iota
	Decreasing
)

// Null is the priority marking a vertex as finalized or absent.
const Null = ^uint32(0)

// numOpen is the number of materialized open buckets (Julienne uses 127
// plus one overflow bucket).
const numOpen = 127

// Destination slots of a bulk move: an open bucket's index, overSlot for
// the overflow bucket, noSlot for a vertex that goes nowhere.
const (
	overSlot = numOpen
	numSlots = numOpen + 1
	noSlot   = 255
)

// placeBlock is the number of vertices one row of slot counters covers.
const placeBlock = 4096

// Buckets maps vertices to integer priorities organized into buckets.
type Buckets struct {
	order Order
	prio  []uint32 // authoritative priority per vertex; Null = finalized
	base  uint32   // priority represented by open slot 0
	open  [numOpen][]uint32
	dead  [numOpen]atomic.Int64
	over  []uint32 // vertices whose priority lies outside the window
	cur   int      // next open slot to inspect
	live  int64    // non-finalized vertices

	slots  []uint8  // destination slot per vertex of the bulk move in flight
	counts []int    // its block × slot counters, then scatter offsets
	spare  []uint32 // the array packStale packs into, swapped with the packed bucket's
}

// New builds buckets over the vertices with initial priorities prio
// (ownership is taken). Vertices with priority Null are absent.
func New(prio []uint32, order Order) *Buckets {
	b := &Buckets{order: order, prio: prio}
	b.live = int64(parallel.Count(len(prio), 0, func(i int) bool { return prio[i] != Null }))
	b.rebase()
	return b
}

// Live returns the number of non-finalized vertices.
func (b *Buckets) Live() int { return int(b.live) }

// Priority returns the current priority of v (Null if finalized).
func (b *Buckets) Priority(v uint32) uint32 { return b.prio[v] }

// openIndex maps priority p to its open slot, or -1 for overflow.
// Priorities behind the window (possible only via clamping races) map to
// the current slot.
func (b *Buckets) openIndex(p uint32) int {
	if b.order == Increasing {
		switch {
		case p < b.base:
			return b.cur
		case p-b.base < numOpen:
			return int(p - b.base)
		default:
			return -1
		}
	}
	switch {
	case p > b.base:
		return b.cur
	case b.base-p < numOpen:
		return int(b.base - p)
	default:
		return -1
	}
}

// slotPriority is the priority represented by open slot i.
func (b *Buckets) slotPriority(i int) uint32 {
	if b.order == Increasing {
		return b.base + uint32(i)
	}
	return b.base - uint32(i)
}

// rebase rebuilds the open window around the extreme live priority and
// redistributes every live vertex.
func (b *Buckets) rebase() {
	for i := range b.open {
		b.open[i] = b.open[i][:0]
		b.dead[i].Store(0)
	}
	b.over = b.over[:0]
	b.cur = 0
	if b.live == 0 {
		return
	}
	if b.order == Increasing {
		b.base = parallel.Reduce(len(b.prio), 0, Null, func(i int) uint32 {
			return b.prio[i]
		}, func(x, y uint32) uint32 { return min(x, y) })
	} else {
		b.base = parallel.Reduce(len(b.prio), 0, uint32(0), func(i int) uint32 {
			if b.prio[i] == Null {
				return 0
			}
			return b.prio[i]
		}, func(x, y uint32) uint32 { return max(x, y) })
	}
	n := len(b.prio)
	b.slots = parallel.Resize(b.slots, n)
	parallel.ForBlocks(n, placeBlock, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			b.slots[v] = b.slotOf(b.prio[v])
		}
	})
	b.place(nil, n)
}

// slotOf is the destination slot of a vertex of priority p.
func (b *Buckets) slotOf(p uint32) uint8 {
	if p == Null {
		return noSlot
	}
	if i := b.openIndex(p); i >= 0 {
		return uint8(i)
	}
	return overSlot
}

// place appends vertex ids[i] — or i itself when ids is nil — to the
// bucket b.slots[i] names, for every i in [0, n), as a counting sort.
func (b *Buckets) place(ids []uint32, n int) {
	nBlocks := (n + placeBlock - 1) / placeBlock
	b.counts = parallel.Resize(b.counts, nBlocks*numSlots)
	counts, slots := b.counts, b.slots
	parallel.ForBlocks(n, placeBlock, func(_, lo, hi int) {
		countSlots(slots[lo:hi], counts[lo/placeBlock*numSlots:][:numSlots])
	})
	var dst [numSlots][]uint32
	for s := range dst {
		arr := &b.over
		if s < numOpen {
			arr = &b.open[s]
		}
		pos := len(*arr)
		for i := s; i < len(counts); i += numSlots {
			c := counts[i]
			counts[i] = pos
			pos += c
		}
		*arr = slices.Grow(*arr, pos-len(*arr))[:pos]
		dst[s] = *arr
	}
	parallel.ForBlocks(n, placeBlock, func(_, lo, hi int) {
		scatterSlots(&dst, ids, lo, slots[lo:hi], counts[lo/placeBlock*numSlots:][:numSlots])
	})
}

// countSlots tallies one block's destination slots.
//
//sage:hotpath
func countSlots(slots []uint8, cnt []int) {
	for i := range cnt {
		cnt[i] = 0
	}
	for _, s := range slots {
		if s != noSlot {
			cnt[s]++
		}
	}
}

// scatterSlots writes one block's vertices (block-relative index i is
// vertex ids[lo+i], or lo+i when ids is nil) at their slots' offsets.
//
//sage:hotpath
func scatterSlots(dst *[numSlots][]uint32, ids []uint32, lo int, slots []uint8, off []int) {
	for i, s := range slots {
		if s == noSlot {
			continue
		}
		v := uint32(lo + i)
		if ids != nil {
			v = ids[lo+i]
		}
		dst[s][off[s]] = v
		off[s]++
	}
}

// NextBucket extracts the next non-empty bucket in priority order,
// finalizing its vertices (their priority becomes Null). It returns the
// bucket's priority and its live vertices; ok is false when nothing
// remains.
func (b *Buckets) NextBucket() (prio uint32, vertices []uint32, ok bool) {
	for b.live > 0 {
		for b.cur < numOpen {
			i := b.cur
			want := b.slotPriority(i)
			arr := b.open[i]
			if len(arr) == 0 {
				b.cur++
				continue
			}
			out := b.claim(arr, want)
			b.open[i] = arr[:0]
			b.dead[i].Store(0)
			if len(out) == 0 {
				b.cur++
				continue
			}
			b.live -= int64(len(out))
			return want, out, true
		}
		b.rebase()
	}
	return 0, nil, false
}

// claim finalizes the vertices of arr still at priority want and returns
// them in arr's order, each once: a vertex that left this bucket and came
// back before its stale entry was packed away has two entries in arr, and
// only the entry whose compare-and-swap wins yields it (with several
// workers, either may).
func (b *Buckets) claim(arr []uint32, want uint32) []uint32 {
	n := len(arr)
	b.slots = parallel.Resize(b.slots, n)
	b.counts = parallel.Resize(b.counts, (n+placeBlock-1)/placeBlock)
	keep, counts := b.slots, b.counts
	parallel.ForBlocks(n, placeBlock, func(_, lo, hi int) {
		c := 0
		for k := lo; k < hi; k++ {
			keep[k] = 0
			if atomic.CompareAndSwapUint32(&b.prio[arr[k]], want, Null) {
				keep[k] = 1
				c++
			}
		}
		counts[lo/placeBlock] = c
	})
	out := make([]uint32, parallel.Scan(counts))
	parallel.ForBlocks(n, placeBlock, func(_, lo, hi int) {
		o := counts[lo/placeBlock]
		for k := lo; k < hi; k++ {
			if keep[k] != 0 {
				out[o] = arr[k]
				o++
			}
		}
	})
	return out
}

// Update changes the priority of v to p (serial variant).
func (b *Buckets) Update(v, p uint32) {
	old := b.prio[v]
	if old == p {
		return
	}
	if old == Null {
		b.live++
	} else if i := b.openIndex(old); i >= 0 {
		b.dead[i].Add(1)
	}
	if p == Null {
		b.prio[v] = Null
		b.live--
		b.packStale()
		return
	}
	i := b.openIndex(p)
	if i < 0 {
		b.prio[v] = p
		b.over = append(b.over, v)
		b.packStale()
		return
	}
	b.prio[v] = b.slotPriority(i)
	b.open[i] = append(b.open[i], v)
	b.packStale()
}

// UpdateBatch applies priority updates ids[i] -> prios[i] in bulk. The
// ids must be distinct within one batch (the algorithms produce them from
// histograms or deduplicated frontiers), which makes the parallel
// classification race-free: each update touches only its own vertex's
// priority, and the counting sort in place does the appends.
func (b *Buckets) UpdateBatch(ids, prios []uint32) {
	if len(ids) == 0 {
		return
	}
	if len(ids) != len(prios) {
		panic("bucket: ids/prios length mismatch")
	}
	b.slots = parallel.Resize(b.slots, len(ids))
	var liveDelta atomic.Int64
	parallel.ForBlocks(len(ids), placeBlock, func(_, lo, hi int) {
		var delta int64
		var dead [numOpen]int64
		for k := lo; k < hi; k++ {
			v, p := ids[k], prios[k]
			old := b.prio[v]
			b.slots[k] = noSlot
			if old == p {
				continue
			}
			if old == Null {
				delta++
			} else if i := b.openIndex(old); i >= 0 {
				dead[i]++
			}
			if p == Null {
				delta--
			} else if i := b.openIndex(p); i >= 0 {
				b.slots[k] = uint8(i)
				p = b.slotPriority(i)
			} else {
				b.slots[k] = overSlot
			}
			b.prio[v] = p
		}
		liveDelta.Add(delta)
		for i, d := range dead {
			if d != 0 {
				b.dead[i].Add(d)
			}
		}
	})
	b.live += liveDelta.Load()
	b.place(ids, len(ids))
	b.packStale()
}

// packStale physically filters buckets whose dead entries outnumber the
// live ones (the semi-eager rule of Appendix B).
func (b *Buckets) packStale() {
	for i := 0; i < numOpen; i++ {
		d := b.dead[i].Load()
		if d == 0 || d*2 <= int64(len(b.open[i])) {
			continue
		}
		want := b.slotPriority(i)
		// Pack into the spare array and swap, so both keep their capacity.
		arr := b.open[i]
		b.spare = parallel.Resize(b.spare, len(arr))
		k := parallel.PackInto(b.spare, arr, func(v uint32) bool { return b.prio[v] == want })
		b.open[i], b.spare = b.spare[:k], arr[:0]
		b.dead[i].Store(0)
	}
}

// SizeWords reports the current footprint in words (priorities plus
// bucket arrays), used by the O(n)-space assertions in the tests.
func (b *Buckets) SizeWords() int64 {
	s := int64(len(b.prio))/2 + (int64(cap(b.over))+int64(cap(b.spare)))/2 + int64(cap(b.slots))/8 + int64(cap(b.counts))
	for i := range b.open {
		s += int64(cap(b.open[i])) / 2
	}
	return s
}
