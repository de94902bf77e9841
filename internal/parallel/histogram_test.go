package parallel

import (
	"math/rand/v2"
	"slices"
	"strconv"
	"testing"
)

// checkHistogram compares HistogramInPlace with a map count of the same
// keys and checks the ascending-key contract.
func checkHistogram(t *testing.T, name string, keys []uint32, s *HistScratch) {
	t.Helper()
	want := map[uint32]uint32{}
	for _, k := range keys {
		want[k]++
	}
	got := HistogramInPlace(slices.Clone(keys), s)
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
	}
	for i, kc := range got {
		if want[kc.Key] != kc.Count {
			t.Fatalf("%s: key %d count %d, want %d", name, kc.Key, kc.Count, want[kc.Key])
		}
		if i > 0 && got[i-1].Key >= kc.Key {
			t.Fatalf("%s: rows %d and %d out of order (%d, %d)", name, i-1, i, got[i-1].Key, kc.Key)
		}
	}
}

func TestHistogramMatchesMap(t *testing.T) {
	defer SetWorkers(Workers())
	r := rand.New(rand.NewPCG(7, 8))
	draw := func(n int, gen func() uint32) []uint32 {
		keys := make([]uint32, n)
		for i := range keys {
			keys[i] = gen()
		}
		return keys
	}
	hub := func(limit uint32) func() uint32 {
		return func() uint32 { // one key takes half the mass
			if r.Uint32()&1 == 0 {
				return limit / 3
			}
			return r.Uint32N(limit)
		}
	}
	vertexIDs := draw(200_000, func() uint32 { return r.Uint32N(1 << 18) })
	// One scratch serves every case in turn, a large one first and again
	// last: what a call leaves in it must not leak into the next.
	cases := []struct {
		name string
		keys []uint32
	}{
		{"vertex-ids", vertexIDs},
		{"empty", nil},
		{"one", []uint32{42}},
		{"small", []uint32{5, 1, 5, 5, 2, 1, 9}},
		{"below-cut", draw(sortSerialCutoff-1, func() uint32 { return r.Uint32N(300) })},
		{"at-cut", draw(sortSerialCutoff, func() uint32 { return r.Uint32N(300) })},
		{"all-zero", draw(5000, func() uint32 { return 0 })},
		{"single-hot", draw(50_000, func() uint32 { return 1 << 17 })},
		{"narrow", draw(20_000, func() uint32 { return r.Uint32N(100) })},
		{"hub", draw(100_000, hub(1<<18))},
		{"sparse-ids", draw(3000, func() uint32 { return r.Uint32N(1 << 18) })},
		{"wide", draw(60_000, func() uint32 { return r.Uint32N(1<<32 - 1) })},
		{"wide-hub", draw(60_000, hub(1<<32-1))},
		{"wide-top", draw(10_000, func() uint32 { return 1<<32 - 2 - r.Uint32N(4) })},
		{"edge-ids", draw(150_000, func() uint32 { return r.Uint32N(1 << 22) })},
		{"vertex-ids-again", vertexIDs},
	}
	for _, p := range []int{1, 2, 8} {
		SetWorkers(p)
		var s HistScratch
		for _, tc := range cases {
			checkHistogram(t, tc.name, tc.keys, &s)
		}
	}
}

// BenchmarkHistogram is one k-core round's histogram: neighbour ids of a
// peeled set on a 2^18-vertex graph, skewed towards low ids as R-MAT is.
func BenchmarkHistogram(b *testing.B) {
	r := rand.New(rand.NewPCG(9, 10))
	for _, k := range []int{4_000, 128_000} {
		in := make([]uint32, k)
		for i := range in {
			in[i] = min(r.Uint32N(1<<18), r.Uint32N(1<<18))
		}
		b.Run("k="+strconv.Itoa(k), func(b *testing.B) {
			keys := make([]uint32, k)
			var s HistScratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(keys, in)
				if len(HistogramInPlace(keys, &s)) == 0 {
					b.Fatal("empty histogram")
				}
			}
		})
	}
}
