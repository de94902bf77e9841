// Package hottest is the golden suite for the hotalloc analyzer:
// //sage:hotpath functions must not allocate, capture, box, or call into
// unmarked code.
package hottest

import "sync/atomic"

//sage:hotpath
func leaf(x int) int { return x + 1 }

func unmarked(x int) int { return x * 2 }

type sink struct {
	vals  []int
	iface interface{}
}

//sage:hotpath
func allocs(n int, s *sink) {
	buf := make([]int, n) // want "make allocates in hot path"
	_ = buf
	m := map[int]int{} // want "composite literal allocates in hot path"
	_ = m
	p := &sink{} // want `&T\{\} allocates in hot path`
	_ = p
	defer leaf(n) // want "defer in hot path allocates a defer record"
}

//sage:hotpath
func strs(a, b string, bs []byte) {
	_ = a + b      // want "string concatenation allocates in hot path"
	_ = []byte(a)  // want `string/\[\]byte conversion allocates in hot path`
	_ = string(bs) // want `string/\[\]byte conversion allocates in hot path`
}

//sage:hotpath
func calls(x int) {
	_ = leaf(x)
	_ = atomic.AddInt64(new(int64), 1) // want "new allocates in hot path"
	_ = unmarked(x)                    // want "call to unmarked, which is not marked //sage:hotpath"
}

//sage:hotpath
func boxes(x int, s *sink) {
	s.iface = x // want "assignment boxes int into interface in hot path"
}

//sage:hotpath
func captures(xs []int) func() int {
	total := 0
	return func() int { // closure over total below
		total++ // want "closure captures total in hot path"
		return total
	}
}

//sage:hotpath
func appends(buf []int, x int) []int {
	buf = append(buf[:0], x) // scratch reuse: allowed
	buf = append(buf, x)     // self-append: allowed
	other := append(buf, x)  // want "append may grow and allocate in hot path"
	_ = other
	return buf
}

//sage:hotpath
func resets(buf []int, seen map[int]bool) {
	clear(buf)  // zeroes in place: allowed
	clear(seen) // empties in place: allowed
}

//sage:hotpath
func waived(n int) []int {
	return make([]int, n) //sage:allow hotalloc
}
