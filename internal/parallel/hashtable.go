package parallel

import (
	"sync/atomic"
)

// HashSet64 is a fixed-capacity concurrent set of uint64 keys built on
// open addressing with linear probing and CAS insertion. It is used to
// deduplicate inter-cluster edges during graph contraction and to
// aggregate candidate edges in maximal matching (§5.3, "using a parallel
// hash table to aggregate edges"). The zero key is reserved as the empty
// slot marker; callers must offset their keys so 0 never appears.
type HashSet64 struct {
	slots []uint64
	mask  uint64
	size  atomic.Int64
}

// NewHashSet64 returns a set able to hold at least capacity keys with load
// factor <= 0.5.
func NewHashSet64(capacity int) *HashSet64 {
	sz := 16
	for sz < 2*capacity {
		sz *= 2
	}
	return &HashSet64{slots: make([]uint64, sz), mask: uint64(sz - 1)}
}

// hash64 is a Murmur-style finalizer giving a well-mixed 64-bit hash.
func hash64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Insert adds key (which must be non-zero) and reports whether the key was
// newly inserted. Insert panics if the table is full.
func (h *HashSet64) Insert(key uint64) bool {
	i := hash64(key) & h.mask
	for probes := uint64(0); probes <= h.mask; probes++ {
		cur := atomic.LoadUint64(&h.slots[i])
		if cur == key {
			return false
		}
		if cur == 0 {
			if atomic.CompareAndSwapUint64(&h.slots[i], 0, key) {
				h.size.Add(1)
				return true
			}
			// Lost the race: re-examine this slot.
			if atomic.LoadUint64(&h.slots[i]) == key {
				return false
			}
		}
		i = (i + 1) & h.mask
	}
	panic("parallel: HashSet64 full")
}

// Contains reports whether key is present.
func (h *HashSet64) Contains(key uint64) bool {
	i := hash64(key) & h.mask
	for probes := uint64(0); probes <= h.mask; probes++ {
		cur := atomic.LoadUint64(&h.slots[i])
		if cur == key {
			return true
		}
		if cur == 0 {
			return false
		}
		i = (i + 1) & h.mask
	}
	return false
}

// Size reports the number of distinct keys inserted.
func (h *HashSet64) Size() int { return int(h.size.Load()) }

// Elements returns the stored keys in unspecified order.
func (h *HashSet64) Elements() []uint64 {
	return Filter(h.slots, func(v uint64) bool { return v != 0 })
}

// HashMap64 is a fixed-capacity concurrent map from non-zero uint64 keys
// to uint64 values with CAS-based insert-or-min semantics.
type HashMap64 struct {
	keys []uint64
	vals []uint64
	mask uint64
}

// NewHashMap64 returns a map able to hold at least capacity entries.
func NewHashMap64(capacity int) *HashMap64 {
	sz := 16
	for sz < 2*capacity {
		sz *= 2
	}
	return &HashMap64{keys: make([]uint64, sz), vals: make([]uint64, sz), mask: uint64(sz - 1)}
}

// InsertMin inserts (key, val) keeping the minimum value for duplicate
// keys. It reports whether the key was newly inserted.
func (h *HashMap64) InsertMin(key, val uint64) bool {
	i := hash64(key) & h.mask
	for probes := uint64(0); probes <= h.mask; probes++ {
		cur := atomic.LoadUint64(&h.keys[i])
		if cur == key {
			writeMinUint64(&h.vals[i], val)
			return false
		}
		if cur == 0 {
			// Claim the slot value-first so a concurrent reader that sees
			// the key also sees a value no larger than ours.
			if atomic.CompareAndSwapUint64(&h.keys[i], 0, key) {
				writeMinUint64orInit(&h.vals[i], val)
				return true
			}
			if atomic.LoadUint64(&h.keys[i]) == key {
				writeMinUint64(&h.vals[i], val)
				return false
			}
		}
		i = (i + 1) & h.mask
	}
	panic("parallel: HashMap64 full")
}

// Get returns the value for key and whether it is present. Get is safe to
// call concurrently with InsertMin, but a racing Get may observe a value
// larger than the final minimum; call it only after insertion quiesces for
// exact results.
func (h *HashMap64) Get(key uint64) (uint64, bool) {
	i := hash64(key) & h.mask
	for probes := uint64(0); probes <= h.mask; probes++ {
		cur := atomic.LoadUint64(&h.keys[i])
		if cur == key {
			return atomic.LoadUint64(&h.vals[i]), true
		}
		if cur == 0 {
			return 0, false
		}
		i = (i + 1) & h.mask
	}
	return 0, false
}

// ForEach calls fn for every (key, value) pair. It must not run
// concurrently with writers.
func (h *HashMap64) ForEach(fn func(key, val uint64)) {
	for i, k := range h.keys {
		if k != 0 {
			fn(k, h.vals[i])
		}
	}
}

// vals slots start at zero, which would incorrectly win every min; new
// slots are initialized by the inserting writer with a CAS from 0. A zero
// *value* therefore cannot be stored; callers offset values by 1 when zero
// is meaningful.
func writeMinUint64orInit(p *uint64, v uint64) {
	for {
		old := atomic.LoadUint64(p)
		if old != 0 && old <= v {
			return
		}
		if atomic.CompareAndSwapUint64(p, old, v) {
			return
		}
	}
}

func writeMinUint64(p *uint64, v uint64) {
	for {
		old := atomic.LoadUint64(p)
		if old != 0 && old <= v {
			return
		}
		if atomic.CompareAndSwapUint64(p, old, v) {
			return
		}
	}
}
