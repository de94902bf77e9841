package parallel

import (
	"cmp"
	"slices"
)

// Every sort in this repository orders elements by an integer key — a
// packed (U, V) pair, a level, a degree, a hash — so the one sorting
// primitive is a stable least-significant-digit radix sort. A pass cuts
// the input into blocks, counts each block's digits in parallel, turns
// the block × digit count matrix into scatter offsets with a digit-major
// scan, and scatters every block to its offsets; because a block's
// elements keep their order within a digit and blocks are laid out in
// order, each pass is stable, and a stable sort has exactly one result —
// the output does not depend on Workers().

const (
	// sortSerialCutoff is the length below which a comparison sort beats
	// setting up the count matrix and the scatter buffer.
	sortSerialCutoff = 1 << 10
	// sortMaxDigit bounds the digit width: 2^12 counters are 32 KB per
	// block, which still sits in L1/L2 beside the streamed input, and 36-bit
	// packed edges (2^18 vertices) sort in three passes instead of four.
	sortMaxDigit = 12
	// sortMinBlock is the smallest block worth its own row of counters.
	sortMinBlock = 1 << 13
)

// SortByKey stably sorts a in place by key, which must be pure and fit in
// the low keyBits bits: elements with equal keys keep their input order,
// so callers get "ties by id" by handing in ids in ascending order. The
// work is O(n·⌈keyBits/12⌉) with one n-sized buffer; inputs shorter than
// the serial cutoff are sorted with slices.SortStableFunc instead.
func SortByKey[T any](a []T, keyBits int, key func(T) uint64) {
	if len(a) < sortSerialCutoff {
		slices.SortStableFunc(a, func(x, y T) int { return cmp.Compare(key(x), key(y)) })
		return
	}
	var counts []int
	radixSort(a, make([]T, len(a)), &counts, keyBits, key)
}

// radixSort is SortByKey above the cutoff, with its working space — a
// scatter buffer as long as a, and the counters, resized here — supplied
// by the caller.
func radixSort[T any](a, buf []T, countBuf *[]int, keyBits int, key func(T) uint64) {
	if keyBits <= 0 {
		return
	}
	passes := ceilDiv(keyBits, sortMaxDigit)
	digit := ceilDiv(keyBits, passes)
	blockLen := max(sortMinBlock, ceilDiv(len(a), 4*Workers()))
	*countBuf = Resize(*countBuf, ceilDiv(len(a), blockLen)<<digit)
	counts := *countBuf
	src, dst := a, buf
	for shift := 0; shift < keyBits; shift += digit {
		if radixPass(dst, src, uint(shift), digit, key, counts, blockLen) {
			src, dst = dst, src
		}
	}
	if &src[0] != &a[0] {
		Copy(a, src)
	}
}

// radixPass stably moves src into dst in order of bits [shift,
// shift+digit) of each element's key. counts holds one row of 2^digit
// counters per block. When every key has the same digit nothing moves and
// it reports false.
func radixPass[T any](dst, src []T, shift uint, digit int, key func(T) uint64, counts []int, blockLen int) bool {
	n, mask := len(src), uint64(1)<<digit-1
	ForBlocks(n, blockLen, func(_, lo, hi int) {
		radixCount(src[lo:hi], shift, mask, key, counts[lo/blockLen<<digit:][:mask+1])
	})
	if !radixOffsets(counts, 1<<digit, n) {
		return false
	}
	ForBlocks(n, blockLen, func(_, lo, hi int) {
		radixScatter(dst, src[lo:hi], shift, mask, key, counts[lo/blockLen<<digit:][:mask+1])
	})
	return true
}

// radixCount tallies the digit of every element of one block.
//
//sage:hotpath
func radixCount[T any](block []T, shift uint, mask uint64, key func(T) uint64, cnt []int) {
	for i := range cnt {
		cnt[i] = 0
	}
	for _, x := range block {
		cnt[key(x)>>shift&mask]++
	}
}

// radixOffsets replaces the block-major count matrix with each block's
// first output position per digit (digit-major order, blocks in order
// within a digit). It reports false when one digit holds all n elements.
//
//sage:hotpath
func radixOffsets(counts []int, nDigits, n int) bool {
	pos := 0
	for d := 0; d < nDigits; d++ {
		start := pos
		for i := d; i < len(counts); i += nDigits {
			c := counts[i]
			counts[i] = pos
			pos += c
		}
		if pos-start == n {
			return false
		}
	}
	return true
}

// radixScatter moves one block's elements to their digits' offsets.
//
//sage:hotpath
func radixScatter[T any](dst, block []T, shift uint, mask uint64, key func(T) uint64, off []int) {
	for _, x := range block {
		d := key(x) >> shift & mask
		dst[off[d]] = x
		off[d]++
	}
}
