package frontier

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"

	"sage/internal/parallel"
)

func TestEmptyAndSingle(t *testing.T) {
	e := Empty(10)
	if !e.IsEmpty() || e.Size() != 0 {
		t.Fatal("empty not empty")
	}
	s := Single(10, 3)
	if s.Size() != 1 || !s.Contains(3) || s.Contains(4) {
		t.Fatal("single wrong")
	}
}

func TestSparseDenseRoundTrip(t *testing.T) {
	ids := []uint32{2, 5, 7}
	s := FromSparse(10, append([]uint32(nil), ids...))
	d := s.Dense()
	if len(d) != 1 || d[0] != 1<<2|1<<5|1<<7 {
		t.Fatalf("dense %b", d)
	}
	// And back.
	d2 := FromDense(10, d, -1)
	if d2.Size() != 3 {
		t.Fatalf("size %d", d2.Size())
	}
	sp := d2.Sparse()
	if fmt.Sprint(sp) != fmt.Sprint(ids) {
		t.Fatalf("sparse %v", sp)
	}
}

func TestFromDenseCountsSize(t *testing.T) {
	bitmap := make([]uint64, Words(1000))
	for i := 0; i < 1000; i += 3 {
		bitmap[i>>6] |= 1 << (i & 63)
	}
	s := FromDense(1000, bitmap, -1)
	if s.Size() != 334 {
		t.Fatalf("size %d", s.Size())
	}
}

func TestAll(t *testing.T) {
	a := All(100)
	if a.Size() != 100 {
		t.Fatalf("size %d", a.Size())
	}
}

func TestForEach(t *testing.T) {
	s := FromSparse(100, []uint32{1, 2, 3})
	var sum atomic.Int64
	s.ForEach(func(v uint32) { sum.Add(int64(v)) })
	if sum.Load() != 6 {
		t.Fatalf("sum %d", sum.Load())
	}
	d := FromDense(4, []uint64{0b0101}, -1)
	sum.Store(0)
	d.ForEach(func(v uint32) { sum.Add(int64(v)) })
	if sum.Load() != 2 {
		t.Fatalf("dense sum %d", sum.Load())
	}
}

// TestBitmapProperties checks the dense form against a plain membership
// array over universe sizes on both sides of a word boundary, at several
// densities and worker counts: sparse → dense → sparse returns the same
// ids, a pack is strictly increasing, Size is the popcount, All sets no
// bit at or past n, and ForEach and Contains agree with membership.
func TestBitmapProperties(t *testing.T) {
	defer parallel.SetWorkers(parallel.Workers())
	for _, workers := range []int{1, 4} {
		parallel.SetWorkers(workers)
		for _, n := range []uint32{0, 1, 63, 64, 65, 1000, 4097} {
			every := make([]bool, n)
			parallel.Fill(every, true)
			checkBitmap(t, fmt.Sprintf("p%d/n%d/all", workers, n), All(n), every)
			for _, p := range []float64{0, 0.01, 0.3, 0.9, 1} {
				name := fmt.Sprintf("p%d/n%d/density%g", workers, n, p)
				r := rand.New(rand.NewPCG(uint64(n), uint64(p*100)))
				member := make([]bool, n)
				var ids []uint32
				for v := range member {
					if r.Float64() < p {
						member[v] = true
						ids = append(ids, uint32(v))
					}
				}
				// A sparse list arrives in any order.
				r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
				s := FromSparse(n, append([]uint32(nil), ids...))
				dense := FromDense(n, s.Dense(), -1)
				if dense.Size() != len(ids) {
					t.Fatalf("%s: popcount size %d, want %d", name, dense.Size(), len(ids))
				}
				checkBitmap(t, name, dense, member)
				checkContains(t, name+"/sparse", s, member)
			}
		}
	}
}

// checkBitmap checks a dense subset against member.
func checkBitmap(t *testing.T, name string, s *VertexSubset, member []bool) {
	t.Helper()
	n := s.N()
	d := s.Dense()
	if len(d) != Words(n) {
		t.Fatalf("%s: %d words, want %d", name, len(d), Words(n))
	}
	pop := 0
	for i, w := range d {
		pop += bits.OnesCount64(w)
		if i == len(d)-1 && n&63 != 0 && w>>(n&63) != 0 {
			t.Fatalf("%s: bits set past n in the last word %b", name, w)
		}
	}
	if pop != s.Size() {
		t.Fatalf("%s: Size %d, popcount %d", name, s.Size(), pop)
	}
	sp := s.Sparse()
	if len(sp) != pop {
		t.Fatalf("%s: packed %d ids, popcount %d", name, len(sp), pop)
	}
	for i, v := range sp {
		if i > 0 && sp[i-1] >= v {
			t.Fatalf("%s: pack not strictly increasing at %d: %d, %d", name, i, sp[i-1], v)
		}
		if !member[v] {
			t.Fatalf("%s: pack emitted non-member %d", name, v)
		}
	}
	checkContains(t, name, s, member)
}

// checkContains checks Contains and ForEach against member.
func checkContains(t *testing.T, name string, s *VertexSubset, member []bool) {
	t.Helper()
	for v, want := range member {
		if s.Contains(uint32(v)) != want {
			t.Fatalf("%s: Contains(%d) = %v", name, v, !want)
		}
	}
	seen := make([]bool, len(member))
	var mu sync.Mutex
	s.ForEach(func(v uint32) {
		mu.Lock()
		defer mu.Unlock()
		if seen[v] {
			t.Errorf("%s: ForEach visited %d twice", name, v)
		}
		seen[v] = true
	})
	for v := range member {
		if seen[v] != member[v] {
			t.Fatalf("%s: ForEach visited %d: %v, member %v", name, v, seen[v], member[v])
		}
	}
}

// TestSetHas checks the atomic helpers: a nil bitmap has no bit set and
// cannot be Set, bits past n and past the bitmap's end read clear, a Set
// past the end panics, and concurrent Sets of ids sharing words — under
// concurrent Has readers — leave exactly the ids set.
func TestSetHas(t *testing.T) {
	for _, v := range []uint32{0, 63, 64, 1 << 31, ^uint32(0)} {
		if Has(nil, v) {
			t.Fatalf("Has(nil, %d) = true", v)
		}
	}
	mustPanic(t, "Set(nil, 0)", func() { Set(nil, 0) })
	for _, n := range []uint32{1, 63, 64, 65, 1000} {
		b := AllSet(n)
		end := uint32(64 * len(b))
		for v := n; v < end+130; v++ {
			if Has(b, v) {
				t.Fatalf("n=%d: Has(%d) past n = true", n, v)
			}
		}
		if !Has(b, n-1) {
			t.Fatalf("n=%d: Has(%d) = false on an AllSet bitmap", n, n-1)
		}
		mustPanic(t, fmt.Sprintf("n=%d: Set(%d)", n, end), func() { Set(b, end) })
	}

	defer parallel.SetWorkers(parallel.Workers())
	parallel.SetWorkers(4)
	const n = 4097
	ids := make([]uint32, 0, n)
	for v := uint32(0); v < n; v += 3 {
		ids = append(ids, v, v) // every id twice: racing Sets of one bit
	}
	rand.New(rand.NewPCG(1, 2)).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	b := make([]uint64, Words(n))
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		// A reader polls one word's bits while they are set: a bit once
		// seen set stays set.
		defer wg.Done()
		var seen uint64
		for !done.Load() {
			for v := uint32(0); v < 64; v++ {
				if Has(b, v) {
					seen |= 1 << v
				} else if seen&(1<<v) != 0 {
					t.Errorf("bit %d read set, then clear", v)
				}
			}
		}
	}()
	parallel.For(len(ids), 4, func(i int) { Set(b, ids[i]) })
	done.Store(true)
	wg.Wait()
	for v := uint32(0); v < uint32(64*len(b)); v++ {
		if want := v < n && v%3 == 0; Has(b, v) != want {
			t.Fatalf("after concurrent Sets: Has(%d) = %v, want %v", v, !want, want)
		}
	}
}

// mustPanic fails unless f panics.
func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", name)
		}
	}()
	f()
}

// BenchmarkFrontierPack measures the dense → sparse conversion at R-MAT
// scale 16 (65,536 vertices) with a quarter of the vertices set: the pack
// a BFS pays when its last dense frontier turns back into a list.
func BenchmarkFrontierPack(b *testing.B) {
	const n = 1 << 16
	r := rand.New(rand.NewPCG(16, 4))
	bitmap := make([]uint64, Words(n))
	for v := 0; v < n; v++ {
		if r.IntN(4) == 0 {
			bitmap[v>>6] |= 1 << (v & 63)
		}
	}
	size := FromDense(n, bitmap, -1).Size()
	b.ReportAllocs()
	for b.Loop() {
		if len(FromDense(n, bitmap, size).Sparse()) != size {
			b.Fatal("pack lost ids")
		}
	}
}

// TestDenseMatchesSet converts sparse sets of ids below and above the
// parallel grain — both conversion paths — at one and at four workers,
// with n % 64 ≠ 0, and compares the bitmap with one built by Set.
func TestDenseMatchesSet(t *testing.T) {
	defer parallel.SetWorkers(parallel.Workers())
	const n = 20011 // 20,011 % 64 = 43
	perm := rand.New(rand.NewPCG(3, 4)).Perm(n)
	for _, p := range []int{1, 4} {
		parallel.SetWorkers(p)
		for _, k := range []int{0, 1, 63, parallel.DefaultGrain, parallel.DefaultGrain + 1, 5000} {
			ids := make([]uint32, k)
			want := make([]uint64, Words(n))
			for i := range ids {
				ids[i] = uint32(perm[i])
				Set(want, ids[i])
			}
			got := FromSparse(n, ids).Dense()
			if len(got) != len(want) {
				t.Fatalf("p%d/k%d: %d words, want %d", p, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("p%d/k%d: word %d is %#x, want %#x", p, k, i, got[i], want[i])
				}
			}
		}
	}
}
