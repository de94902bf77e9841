package parallel

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000, 100_000} {
		hits := make([]int32, n)
		For(n, 13, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d index %d hit %d times", n, i, h)
			}
		}
	}
}

func TestForBlocksPartition(t *testing.T) {
	n := 10_000
	var total atomic.Int64
	ForBlocks(n, 77, func(_, lo, hi int) {
		if lo >= hi || hi > n {
			t.Errorf("bad block [%d,%d)", lo, hi)
		}
		total.Add(int64(hi - lo))
	})
	if total.Load() != int64(n) {
		t.Fatalf("blocks cover %d of %d", total.Load(), n)
	}
}

func TestForWorkerIDsInRange(t *testing.T) {
	var bad atomic.Int32
	ForWorker(50_000, 10, func(w, _ int) {
		if w < 0 || w >= Workers() {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatal("worker id out of range")
	}
}

func TestSetWorkersClamps(t *testing.T) {
	old := Workers()
	defer SetWorkers(old)
	SetWorkers(0)
	if Workers() != 1 {
		t.Fatalf("got %d, want 1", Workers())
	}
	SetWorkers(MaxWorkers + 5)
	if Workers() != MaxWorkers {
		t.Fatalf("got %d, want %d", Workers(), MaxWorkers)
	}
}

func TestDo(t *testing.T) {
	var a, b, c atomic.Int32
	Do(func() { a.Store(1) }, func() { b.Store(2) }, func() { c.Store(3) })
	if a.Load() != 1 || b.Load() != 2 || c.Load() != 3 {
		t.Fatal("Do did not run all thunks")
	}
}

func TestScanMatchesSerial(t *testing.T) {
	for _, n := range []int{0, 1, 5, 1023, 1024, 1025, 50_000} {
		a := make([]int64, n)
		want := make([]int64, n)
		var acc int64
		for i := range a {
			a[i] = int64(i%17 - 5)
			want[i] = acc
			acc += a[i]
		}
		total := Scan(a)
		if total != acc {
			t.Fatalf("n=%d total %d want %d", n, total, acc)
		}
		for i := range a {
			if a[i] != want[i] {
				t.Fatalf("n=%d scan[%d]=%d want %d", n, i, a[i], want[i])
			}
		}
	}
}

func TestScanInclusive(t *testing.T) {
	for _, n := range []int{0, 1, 3000, 50_000} {
		a := make([]int64, n)
		want := make([]int64, n)
		var acc int64
		for i := range a {
			a[i] = int64(i % 7)
			acc += a[i]
			want[i] = acc
		}
		total := ScanInclusive(a)
		if total != acc {
			t.Fatalf("n=%d total %d want %d", n, total, acc)
		}
		for i := range a {
			if a[i] != want[i] {
				t.Fatalf("n=%d inc[%d]=%d want %d", n, i, a[i], want[i])
			}
		}
	}
}

func TestScanProperty(t *testing.T) {
	f := func(vals []int32) bool {
		a := make([]int64, len(vals))
		ref := make([]int64, len(vals))
		var acc int64
		for i, v := range vals {
			a[i] = int64(v)
			ref[i] = acc
			acc += int64(v)
		}
		if Scan(a) != acc {
			return false
		}
		for i := range a {
			if a[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReduce(t *testing.T) {
	n := 123_456
	got := ReduceSum(n, 100, func(i int) int64 { return int64(i) })
	want := int64(n) * int64(n-1) / 2
	if got != want {
		t.Fatalf("sum=%d want %d", got, want)
	}
	m := ReduceMax(n, 0, int64(-1), func(i int) int64 { return int64(i % 1000) })
	if m != 999 {
		t.Fatalf("max=%d want 999", m)
	}
	if ReduceSum(0, 0, func(int) int64 { return 1 }) != 0 {
		t.Fatal("empty reduce not identity")
	}
}

func TestFilterPreservesOrder(t *testing.T) {
	n := 40_000
	a := make([]uint32, n)
	for i := range a {
		a[i] = uint32(i)
	}
	got := Filter(a, func(v uint32) bool { return v%3 == 0 })
	for i, v := range got {
		if v != uint32(i*3) {
			t.Fatalf("got[%d]=%d want %d", i, v, i*3)
		}
	}
}

func TestFilterProperty(t *testing.T) {
	f := func(vals []uint32) bool {
		pred := func(v uint32) bool { return v%2 == 0 }
		got := Filter(vals, pred)
		var want []uint32
		for _, v := range vals {
			if pred(v) {
				want = append(want, v)
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPackIndex(t *testing.T) {
	got := PackIndex(10_000, func(i int) bool { return i%7 == 0 })
	for i, v := range got {
		if v != uint32(i*7) {
			t.Fatalf("got[%d]=%d", i, v)
		}
	}
}

func TestPackInto(t *testing.T) {
	a := []int{5, 2, 9, 4, 7, 6}
	dst := make([]int, len(a))
	k := PackInto(dst, a, func(v int) bool { return v > 4 })
	want := []int{5, 9, 7, 6}
	if k != len(want) {
		t.Fatalf("k=%d", k)
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst=%v", dst[:k])
		}
	}
}

func TestHashSet64Concurrent(t *testing.T) {
	n := 50_000
	h := NewHashSet64(n)
	var newKeys atomic.Int64
	For(3*n, 64, func(i int) {
		if h.Insert(uint64(i%n) + 1) {
			newKeys.Add(1)
		}
	})
	if newKeys.Load() != int64(n) {
		t.Fatalf("inserted %d distinct, want %d", newKeys.Load(), n)
	}
	if h.Size() != n {
		t.Fatalf("size %d want %d", h.Size(), n)
	}
	if len(h.Elements()) != n {
		t.Fatalf("elements %d", len(h.Elements()))
	}
	for i := 1; i <= n; i++ {
		if !h.Contains(uint64(i)) {
			t.Fatalf("missing %d", i)
		}
	}
	if h.Contains(uint64(n + 1)) {
		t.Fatal("phantom key")
	}
}

func TestHashMap64InsertMin(t *testing.T) {
	h := NewHashMap64(1000)
	For(10_000, 64, func(i int) {
		key := uint64(i%100) + 1
		h.InsertMin(key, uint64(i)+1)
	})
	for k := uint64(1); k <= 100; k++ {
		v, ok := h.Get(k)
		if !ok {
			t.Fatalf("missing key %d", k)
		}
		if v != k {
			// Min value inserted for key k is i=k-1 -> value k.
			t.Fatalf("key %d value %d want %d", k, v, k)
		}
	}
}

func TestWriteMinMax(t *testing.T) {
	var x uint32 = 100
	if !WriteMinUint32(&x, 50) || x != 50 {
		t.Fatal("WriteMin failed")
	}
	if WriteMinUint32(&x, 60) {
		t.Fatal("WriteMin should not raise")
	}
	var y int64 = 5
	if !WriteMaxInt64(&y, 10) || y != 10 {
		t.Fatal("WriteMax failed")
	}
}

// TestAddFloat64Concurrent: n concurrent adds of 1 sum to n, and the
// previous values they return are exactly {0, …, n−1}, each once.
func TestAddFloat64Concurrent(t *testing.T) {
	var bits uint64
	n := 100_000
	prev := make([]float64, n)
	For(n, 64, func(i int) { prev[i] = AddFloat64(&bits, 1.0) })
	if got := LoadFloat64(&bits); got != float64(n) {
		t.Fatalf("got %v want %d", got, n)
	}
	seen := make([]bool, n)
	for i, p := range prev {
		k := int(p)
		if float64(k) != p || k < 0 || k >= n || seen[k] {
			t.Fatalf("add %d returned previous value %v: not a fresh integer in [0, %d)", i, p, n)
		}
		seen[k] = true
	}
}

func TestFlattenUint32(t *testing.T) {
	chunks := [][]uint32{{1, 2}, nil, {3}, {4, 5, 6}}
	got := FlattenUint32(nil, chunks)
	want := []uint32{1, 2, 3, 4, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
}

func TestSingleWorkerParity(t *testing.T) {
	old := Workers()
	defer SetWorkers(old)
	a := make([]int64, 9999)
	for i := range a {
		a[i] = int64(i % 13)
	}
	b := append([]int64(nil), a...)
	SetWorkers(1)
	t1 := Scan(a)
	SetWorkers(old)
	tp := Scan(b)
	_ = tp
	SetWorkers(1)
	// After one scan each, both should be identical.
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("serial/parallel divergence at %d", i)
		}
	}
	if t1 != tp {
		t.Fatalf("totals differ: %d vs %d", t1, tp)
	}
}
