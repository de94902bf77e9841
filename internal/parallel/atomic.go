package parallel

import (
	"math"
	"sync/atomic"
)

// CASUint32 performs a compare-and-swap on p.
func CASUint32(p *uint32, old, new uint32) bool {
	return atomic.CompareAndSwapUint32(p, old, new)
}

// WriteMinUint32 atomically sets *p = min(*p, v), returning true iff the
// write strictly lowered the stored value. It is the priority-write used by
// shortest-path relaxations.
func WriteMinUint32(p *uint32, v uint32) bool {
	for {
		old := atomic.LoadUint32(p)
		if v >= old {
			return false
		}
		if atomic.CompareAndSwapUint32(p, old, v) {
			return true
		}
	}
}

// WriteMinInt64 atomically sets *p = min(*p, v).
func WriteMinInt64(p *int64, v int64) bool {
	for {
		old := atomic.LoadInt64(p)
		if v >= old {
			return false
		}
		if atomic.CompareAndSwapInt64(p, old, v) {
			return true
		}
	}
}

// WriteMaxUint32 atomically sets *p = max(*p, v).
func WriteMaxUint32(p *uint32, v uint32) bool {
	for {
		old := atomic.LoadUint32(p)
		if v <= old {
			return false
		}
		if atomic.CompareAndSwapUint32(p, old, v) {
			return true
		}
	}
}

// WriteMaxInt64 atomically sets *p = max(*p, v).
func WriteMaxInt64(p *int64, v int64) bool {
	for {
		old := atomic.LoadInt64(p)
		if v <= old {
			return false
		}
		if atomic.CompareAndSwapInt64(p, old, v) {
			return true
		}
	}
}

// AddFloat64 atomically adds delta to the float64 stored as bits in *p
// and returns the previous value. The semi-external PageRank accumulates
// rank shares with it; betweenness centrality's path counts test the
// previous value for 0 to learn which add discovered a vertex.
func AddFloat64(p *uint64, delta float64) float64 {
	for {
		old := atomic.LoadUint64(p)
		of := math.Float64frombits(old)
		if atomic.CompareAndSwapUint64(p, old, math.Float64bits(of+delta)) {
			return of
		}
	}
}

// LoadFloat64 reads the float64 stored as bits in *p.
func LoadFloat64(p *uint64) float64 {
	return math.Float64frombits(atomic.LoadUint64(p))
}

// StoreFloat64 writes v as bits into *p.
func StoreFloat64(p *uint64, v float64) {
	atomic.StoreUint64(p, math.Float64bits(v))
}

// FetchAddInt32 atomically adds delta to *p and returns the new value.
func FetchAddInt32(p *int32, delta int32) int32 {
	return atomic.AddInt32(p, delta)
}
