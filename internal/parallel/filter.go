package parallel

// Filter returns the elements a[i] for which pred(a[i]) is true, preserving
// their relative order. It is the PSAM filter primitive: O(n) work,
// O(log n) depth (§2). The implementation counts per block, scans the
// counts, and copies — pred is therefore evaluated TWICE per element and
// must be pure (side-effecting predicates such as CAS claims must run in
// a separate pass first).
func Filter[T any](a []T, pred func(T) bool) []T {
	return FilterIndex(a, func(_ int, v T) bool { return pred(v) })
}

// FilterIndex is Filter with the element index also supplied to the
// predicate.
func FilterIndex[T any](a []T, pred func(i int, v T) bool) []T {
	n := len(a)
	if n == 0 {
		return nil
	}
	grain := DefaultGrain
	nBlocks := ceilDiv(n, grain)
	counts := make([]int, nBlocks)
	ForBlocks(n, grain, func(_, lo, hi int) {
		c := 0
		for i := lo; i < hi; i++ {
			if pred(i, a[i]) {
				c++
			}
		}
		counts[lo/grain] = c
	})
	total := Scan(counts)
	out := make([]T, total)
	ForBlocks(n, grain, func(_, lo, hi int) {
		o := counts[lo/grain]
		for i := lo; i < hi; i++ {
			if pred(i, a[i]) {
				out[o] = a[i]
				o++
			}
		}
	})
	return out
}

// PackIndex returns the indices i in [0, n) for which pred(i) is true, in
// increasing order.
func PackIndex(n int, pred func(i int) bool) []uint32 {
	if n == 0 {
		return nil
	}
	grain := DefaultGrain
	nBlocks := ceilDiv(n, grain)
	counts := make([]int, nBlocks)
	ForBlocks(n, grain, func(_, lo, hi int) {
		c := 0
		for i := lo; i < hi; i++ {
			if pred(i) {
				c++
			}
		}
		counts[lo/grain] = c
	})
	total := Scan(counts)
	out := make([]uint32, total)
	ForBlocks(n, grain, func(_, lo, hi int) {
		o := counts[lo/grain]
		for i := lo; i < hi; i++ {
			if pred(i) {
				out[o] = uint32(i)
				o++
			}
		}
	})
	return out
}

// PackInto writes the elements satisfying pred into dst (which must be
// large enough) and returns the number written. It avoids allocation for
// callers that reuse buffers.
func PackInto[T any](dst, a []T, pred func(T) bool) int {
	n := len(a)
	if n == 0 {
		return 0
	}
	grain := DefaultGrain
	nBlocks := ceilDiv(n, grain)
	counts := make([]int, nBlocks)
	ForBlocks(n, grain, func(_, lo, hi int) {
		c := 0
		for i := lo; i < hi; i++ {
			if pred(a[i]) {
				c++
			}
		}
		counts[lo/grain] = c
	})
	total := Scan(counts)
	ForBlocks(n, grain, func(_, lo, hi int) {
		o := counts[lo/grain]
		for i := lo; i < hi; i++ {
			if pred(a[i]) {
				dst[o] = a[i]
				o++
			}
		}
	})
	return total
}

// Map applies f to every element of a in parallel, returning a new slice.
func Map[T, U any](a []T, f func(T) U) []U {
	out := make([]U, len(a))
	For(len(a), 0, func(i int) { out[i] = f(a[i]) })
	return out
}

// FlattenUint32 concatenates the given chunks into one contiguous slice
// using a scan over the chunk lengths and a parallel copy. It is the
// aggregation step of edgeMapChunked (Algorithm 1, lines 24–30). The
// result reuses dst's array when its capacity allows (as Resize does), so
// a round loop can flatten into one buffer for its whole run; dst must
// not overlap any chunk. Pass nil for a fresh slice.
func FlattenUint32(dst []uint32, chunks [][]uint32) []uint32 {
	k := len(chunks)
	if k == 0 {
		return dst[:0]
	}
	offs := make([]int, k)
	For(k, 64, func(i int) { offs[i] = len(chunks[i]) })
	total := Scan(offs)
	out := Resize(dst, total)
	For(k, 1, func(i int) {
		copy(out[offs[i]:], chunks[i])
	})
	return out
}
