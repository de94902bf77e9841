package parallel

import "slices"

// Number constrains the numeric element types used by Scan and the numeric
// reductions.
type Number interface {
	~int | ~int32 | ~int64 | ~uint32 | ~uint64 | ~float64
}

// Reduce computes the reduction of f(i) for i in [0, n) under the
// associative operator op with identity id. Each worker reduces its blocks
// locally; the per-block partials are combined sequentially (there are at
// most n/grain of them).
func Reduce[T any](n, grain int, id T, f func(i int) T, op func(a, b T) T) T {
	if n <= 0 {
		return id
	}
	if grain <= 0 {
		grain = DefaultGrain
	}
	nBlocks := ceilDiv(n, grain)
	partial := make([]T, nBlocks)
	ForBlocks(n, grain, func(_, lo, hi int) {
		acc := id
		for i := lo; i < hi; i++ {
			acc = op(acc, f(i))
		}
		partial[lo/grain] = acc
	})
	acc := id
	for _, p := range partial {
		acc = op(acc, p)
	}
	return acc
}

// ReduceSum computes sum(f(i)) for i in [0, n).
func ReduceSum[T Number](n, grain int, f func(i int) T) T {
	var zero T
	return Reduce(n, grain, zero, f, func(a, b T) T { return a + b })
}

// ReduceMax computes the maximum of f(i) over [0, n), returning id for an
// empty range.
func ReduceMax[T Number](n, grain int, id T, f func(i int) T) T {
	return Reduce(n, grain, id, f, func(a, b T) T {
		if a > b {
			return a
		}
		return b
	})
}

// Scan replaces a with its exclusive prefix sum and returns the total.
// It is the PSAM scan primitive: O(n) work, O(log n) depth (§2).
func Scan[T Number](a []T) T {
	n := len(a)
	if n == 0 {
		var zero T
		return zero
	}
	grain := DefaultGrain
	if n <= 2*grain || Workers() == 1 {
		var acc T
		for i := 0; i < n; i++ {
			v := a[i]
			a[i] = acc
			acc += v
		}
		return acc
	}
	nBlocks := ceilDiv(n, grain)
	sums := make([]T, nBlocks)
	ForBlocks(n, grain, func(_, lo, hi int) {
		var acc T
		for i := lo; i < hi; i++ {
			acc += a[i]
		}
		sums[lo/grain] = acc
	})
	var total T
	for b := 0; b < nBlocks; b++ {
		s := sums[b]
		sums[b] = total
		total += s
	}
	ForBlocks(n, grain, func(_, lo, hi int) {
		acc := sums[lo/grain]
		for i := lo; i < hi; i++ {
			v := a[i]
			a[i] = acc
			acc += v
		}
	})
	return total
}

// ScanInclusive replaces a with its inclusive prefix sum and returns the
// total.
func ScanInclusive[T Number](a []T) T {
	n := len(a)
	if n == 0 {
		var zero T
		return zero
	}
	grain := DefaultGrain
	if n <= 2*grain || Workers() == 1 {
		var acc T
		for i := 0; i < n; i++ {
			acc += a[i]
			a[i] = acc
		}
		return acc
	}
	nBlocks := ceilDiv(n, grain)
	sums := make([]T, nBlocks)
	ForBlocks(n, grain, func(_, lo, hi int) {
		var acc T
		for i := lo; i < hi; i++ {
			acc += a[i]
		}
		sums[lo/grain] = acc
	})
	var total T
	for b := 0; b < nBlocks; b++ {
		s := sums[b]
		sums[b] = total
		total += s
	}
	ForBlocks(n, grain, func(_, lo, hi int) {
		acc := sums[lo/grain]
		for i := lo; i < hi; i++ {
			acc += a[i]
			a[i] = acc
		}
	})
	return total
}

// Count returns the number of i in [0, n) for which pred(i) is true.
func Count(n, grain int, pred func(i int) bool) int {
	return ReduceSum(n, grain, func(i int) int {
		if pred(i) {
			return 1
		}
		return 0
	})
}

// Fill sets every element of a to v in parallel.
func Fill[T any](a []T, v T) {
	ForBlocks(len(a), 4*DefaultGrain, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			a[i] = v
		}
	})
}

// Tabulate builds a slice of length n with a[i] = f(i) computed in parallel.
func Tabulate[T any](n int, f func(i int) T) []T {
	a := make([]T, n)
	For(n, 0, func(i int) { a[i] = f(i) })
	return a
}

// Resize returns buf with length n, reusing its array when the capacity
// allows; the contents are unspecified. It is how round loops keep one
// buffer for a whole run instead of allocating per round.
func Resize[T any](buf []T, n int) []T {
	return slices.Grow(buf[:0], n)[:n]
}

// Copy copies src into dst in parallel. The slices must have equal length.
func Copy[T any](dst, src []T) {
	ForBlocks(len(src), 4*DefaultGrain, func(_, lo, hi int) {
		copy(dst[lo:hi], src[lo:hi])
	})
}
