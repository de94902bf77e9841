package parallel

import (
	"cmp"
	"encoding/binary"
	"math/rand/v2"
	"slices"
	"testing"
)

// rec is a struct element: the payload tells equal keys apart, so a
// comparison against slices.SortStableFunc checks stability too.
type rec struct {
	key     uint64
	payload uint32
}

func recKey(r rec) uint64 { return r.key }

func wantSorted(in []rec) []rec {
	want := slices.Clone(in)
	slices.SortStableFunc(want, func(x, y rec) int { return cmp.Compare(x.key, y.key) })
	return want
}

// sortSizes straddle the serial cutoff, one block, and several blocks.
var sortSizes = []int{0, 1, 2, sortSerialCutoff - 1, sortSerialCutoff, sortSerialCutoff + 1,
	sortMinBlock - 1, sortMinBlock, sortMinBlock + 1, 3*sortMinBlock + 17, 100_003}

func TestSortByKeyMatchesStableSort(t *testing.T) {
	defer SetWorkers(Workers())
	r := rand.New(rand.NewPCG(1, 2))
	shapes := map[string]func(i, n int, mask uint64) uint64{
		"random":   func(_, _ int, mask uint64) uint64 { return r.Uint64() & mask },
		"equal":    func(_, _ int, mask uint64) uint64 { return 5 & mask },
		"sorted":   func(i, _ int, mask uint64) uint64 { return uint64(i) & mask },
		"reversed": func(i, n int, mask uint64) uint64 { return uint64(n-i) & mask },
	}
	for _, keyBits := range []int{0, 1, 8, 17, 32, 64} {
		mask := uint64(1)<<keyBits - 1 // 2^64 wraps to 0, minus 1 is all ones
		for shape, gen := range shapes {
			for _, n := range sortSizes {
				in := make([]rec, n)
				for i := range in {
					in[i] = rec{key: gen(i, n, mask), payload: uint32(i)}
				}
				want := wantSorted(in)
				for _, p := range []int{1, 2, 8} {
					SetWorkers(p)
					got := slices.Clone(in)
					SortByKey(got, keyBits, recKey)
					if !slices.Equal(got, want) {
						t.Fatalf("keyBits=%d %s n=%d workers=%d: differs from the stable sort", keyBits, shape, n, p)
					}
				}
			}
		}
	}
}

// TestSortByKeyScalars sorts plain ids by a looked-up key, the shape every
// algorithm call site has (order by start[v], level[v], parent[v]).
func TestSortByKeyScalars(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	n := 50_000
	level := make([]uint32, n)
	for i := range level {
		level[i] = r.Uint32N(40)
	}
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(i)
	}
	SortByKey(ids, 6, func(v uint32) uint64 { return uint64(level[v]) })
	for i := 1; i < n; i++ {
		a, b := ids[i-1], ids[i]
		if level[a] > level[b] || (level[a] == level[b] && a >= b) {
			t.Fatalf("position %d: (%d,level %d) before (%d,level %d)", i, a, level[a], b, level[b])
		}
	}
}

func FuzzSortByKey(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{3, 1, 2, 1, 0, 0, 0, 9}, uint8(8))
	f.Add(binary.LittleEndian.AppendUint64(nil, ^uint64(0)), uint8(64))
	f.Fuzz(func(t *testing.T, data []byte, keyBits uint8) {
		bitsN := int(keyBits) % 65
		mask := uint64(1)<<bitsN - 1
		// Each input byte pair seeds one key; the slice is repeated past the
		// serial cutoff so the radix passes run, not just the fallback.
		var base []uint64
		for i := 0; i+1 < len(data); i += 2 {
			x := uint64(data[i])<<8 | uint64(data[i+1])
			base = append(base, (x*0x9e3779b97f4a7c15)&mask)
		}
		if len(base) == 0 {
			return
		}
		in := make([]rec, 0, 2*sortSerialCutoff)
		for len(in) < 2*sortSerialCutoff {
			for _, k := range base {
				in = append(in, rec{key: k, payload: uint32(len(in))})
			}
		}
		want := wantSorted(in)
		SortByKey(in, bitsN, recKey)
		if !slices.Equal(in, want) {
			t.Fatalf("keyBits=%d n=%d: differs from the stable sort", bitsN, len(in))
		}
	})
}

// BenchmarkSortByKey covers the two shapes the call sites have: ids by a
// narrow key (one pass) and packed (U, V) edges (the graph builder).
func BenchmarkSortByKey(b *testing.B) {
	r := rand.New(rand.NewPCG(5, 6))
	b.Run("ids2^18/key8", func(b *testing.B) {
		n := 1 << 18
		level := make([]uint8, n)
		for i := range level {
			level[i] = uint8(r.Uint32())
		}
		ids := make([]uint32, n)
		b.SetBytes(int64(4 * n))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for j := range ids {
				ids[j] = uint32(j)
			}
			b.StartTimer()
			SortByKey(ids, 8, func(v uint32) uint64 { return uint64(level[v]) })
		}
	})
	b.Run("edges2^22/key36", func(b *testing.B) {
		type edge struct{ U, V uint32 }
		n := 1 << 22
		in := make([]edge, n)
		for i := range in {
			in[i] = edge{U: r.Uint32N(1 << 18), V: r.Uint32N(1 << 18)}
		}
		work := make([]edge, n)
		b.SetBytes(int64(8 * n))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(work, in)
			b.StartTimer()
			SortByKey(work, 36, func(e edge) uint64 { return uint64(e.U)<<18 | uint64(e.V) })
		}
	})
}
