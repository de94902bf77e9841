package bucket

import (
	"maps"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"sage/internal/parallel"
)

func prios(vals ...uint32) []uint32 { return vals }

func TestIncreasingOrder(t *testing.T) {
	b := New(prios(3, 1, 4, 1, 5, 9, 2, 6), Increasing)
	var seen []uint32
	for {
		p, vs, ok := b.NextBucket()
		if !ok {
			break
		}
		for range vs {
			seen = append(seen, p)
		}
	}
	if len(seen) != 8 {
		t.Fatalf("extracted %d", len(seen))
	}
	if !sort.SliceIsSorted(seen, func(i, j int) bool { return seen[i] < seen[j] }) {
		t.Fatalf("not increasing: %v", seen)
	}
}

func TestDecreasingOrder(t *testing.T) {
	b := New(prios(3, 1, 4, 1, 5), Decreasing)
	var seen []uint32
	for {
		p, vs, ok := b.NextBucket()
		if !ok {
			break
		}
		for range vs {
			seen = append(seen, p)
		}
	}
	if !sort.SliceIsSorted(seen, func(i, j int) bool { return seen[i] > seen[j] }) {
		t.Fatalf("not decreasing: %v", seen)
	}
}

func TestNullAbsent(t *testing.T) {
	b := New(prios(1, Null, 2), Increasing)
	if b.Live() != 2 {
		t.Fatalf("live=%d", b.Live())
	}
	count := 0
	for {
		_, vs, ok := b.NextBucket()
		if !ok {
			break
		}
		count += len(vs)
	}
	if count != 2 {
		t.Fatalf("extracted %d", count)
	}
}

func TestUpdateMovesVertex(t *testing.T) {
	b := New(prios(10, 20, 30), Increasing)
	b.Update(2, 15) // vertex 2 moves between 10 and 20
	p, vs, ok := b.NextBucket()
	if !ok || p != 10 || len(vs) != 1 || vs[0] != 0 {
		t.Fatalf("first pop p=%d vs=%v", p, vs)
	}
	p, vs, ok = b.NextBucket()
	if !ok || p != 15 || len(vs) != 1 || vs[0] != 2 {
		t.Fatalf("second pop p=%d vs=%v", p, vs)
	}
}

func TestUpdateBehindWindowClamps(t *testing.T) {
	// Priorities behind the processing frontier clamp into the current
	// bucket (the k-core floor rule): the vertex is processed promptly and
	// extraction order never regresses.
	b := New(prios(10, 20, 30), Increasing)
	p, _, _ := b.NextBucket() // pops priority 10
	if p != 10 {
		t.Fatalf("first pop %d", p)
	}
	b.Update(1, 3) // behind the window; clamps to the current bucket
	last := p
	for {
		q, _, ok := b.NextBucket()
		if !ok {
			break
		}
		if q < last {
			t.Fatalf("extraction regressed: %d after %d", q, last)
		}
		last = q
	}
}

func TestUpdateBatchAndOverflow(t *testing.T) {
	// Priorities far apart force the overflow path and rebasing.
	n := 1000
	init := make([]uint32, n)
	for i := range init {
		init[i] = uint32(i * 37) // spans many windows
	}
	b := New(append([]uint32(nil), init...), Increasing)
	var got []uint32
	for {
		p, vs, ok := b.NextBucket()
		if !ok {
			break
		}
		for range vs {
			got = append(got, p)
		}
	}
	if len(got) != n {
		t.Fatalf("extracted %d of %d", len(got), n)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("overflow rebasing broke ordering")
	}
}

func TestReinsertionAfterFinalize(t *testing.T) {
	// Set-cover semantics: a popped (finalized) vertex re-enters.
	b := New(prios(5, 7), Increasing)
	p, vs, _ := b.NextBucket()
	if p != 5 || len(vs) != 1 {
		t.Fatalf("pop p=%d %v", p, vs)
	}
	b.UpdateBatch([]uint32{vs[0]}, []uint32{9})
	var seen int
	for {
		_, vs, ok := b.NextBucket()
		if !ok {
			break
		}
		seen += len(vs)
	}
	if seen != 2 {
		t.Fatalf("reinserted vertex lost: %d", seen)
	}
}

func TestKCoreLikePeeling(t *testing.T) {
	// Simulated peeling: priorities only decrease (clamped at current k);
	// NextBucket order must remain non-decreasing.
	r := rand.New(rand.NewPCG(5, 6))
	n := 2000
	deg := make([]uint32, n)
	for i := range deg {
		deg[i] = uint32(r.IntN(300))
	}
	b := New(append([]uint32(nil), deg...), Increasing)
	lastK := uint32(0)
	extracted := 0
	for {
		k, vs, ok := b.NextBucket()
		if !ok {
			break
		}
		if k < lastK {
			t.Fatalf("bucket order regressed: %d after %d", k, lastK)
		}
		lastK = k
		extracted += len(vs)
		// Decrease some random survivors' priorities (clamped at k).
		var ids, ps []uint32
		seen := map[uint32]bool{}
		for j := 0; j < 50; j++ {
			v := uint32(r.IntN(n))
			if seen[v] || b.Priority(v) == Null {
				continue
			}
			seen[v] = true
			np := b.Priority(v)
			if np > 0 {
				np--
			}
			if np < k {
				np = k
			}
			ids = append(ids, v)
			ps = append(ps, np)
		}
		b.UpdateBatch(ids, ps)
	}
	if extracted != n {
		t.Fatalf("extracted %d of %d", extracted, n)
	}
}

func TestSemiEagerPacking(t *testing.T) {
	// Repeatedly move vertices between two buckets; the structure's
	// footprint must stay O(n), not O(#updates).
	n := 256
	init := make([]uint32, n)
	b := New(init, Increasing)
	for round := 0; round < 200; round++ {
		ids := make([]uint32, n/2)
		ps := make([]uint32, n/2)
		for i := range ids {
			ids[i] = uint32(i)
			ps[i] = uint32(round%3 + 1)
		}
		b.UpdateBatch(ids, ps)
	}
	if sz := b.SizeWords(); sz > int64(16*n) {
		t.Fatalf("bucket structure grew to %d words for n=%d", sz, n)
	}
}

func TestLiveCountExact(t *testing.T) {
	b := New(prios(1, 2, 3, Null), Increasing)
	if b.Live() != 3 {
		t.Fatalf("live=%d", b.Live())
	}
	b.Update(0, Null) // finalize one
	if b.Live() != 2 {
		t.Fatalf("live=%d after delete", b.Live())
	}
	b.Update(3, 7) // resurrect the absent one
	if b.Live() != 3 {
		t.Fatalf("live=%d after resurrect", b.Live())
	}
	seen := 0
	for {
		_, vs, ok := b.NextBucket()
		if !ok {
			break
		}
		seen += len(vs)
	}
	if seen != 3 {
		t.Fatalf("extracted %d", seen)
	}
}

// liveContents returns, per open slot and for overflow, the set of
// vertices the structure would still yield from there (stale entries,
// whose priority has moved on, are not contents).
func liveContents(b *Buckets) [numSlots]map[uint32]bool {
	var sets [numSlots]map[uint32]bool
	for i := range sets {
		sets[i] = map[uint32]bool{}
	}
	for i := range b.open {
		for _, v := range b.open[i] {
			if b.prio[v] == b.slotPriority(i) {
				sets[i][v] = true
			}
		}
	}
	for _, v := range b.over {
		if p := b.prio[v]; p != Null && b.openIndex(p) < 0 {
			sets[overSlot][v] = true
		}
	}
	return sets
}

// TestUpdateBatchMatchesSerialUpdate drives two structures through the
// same peel-and-update history, one with UpdateBatch and one with the
// serial Update per vertex: priorities, live counts, bucket contents (as
// sets) and extraction must agree at every step, at any worker count, and
// the footprint must stay O(n). As in the algorithms that use the
// structure, a vertex only ever moves towards the frontier: lazy deletion
// leaves its old entries behind, so a bucket it re-entered before that
// bucket's extraction would hold it twice.
func TestUpdateBatchMatchesSerialUpdate(t *testing.T) {
	defer parallel.SetWorkers(parallel.Workers())
	const n = 30_000
	// Priorities are multiples of 40 and updates never move a vertex back
	// to the bucket just extracted, so a window of 127 holds three buckets
	// and a dozen extractions cross several (rebases with a populated
	// overflow bucket included).
	for _, order := range []Order{Increasing, Decreasing} {
		for _, p := range []int{1, 4} {
			parallel.SetWorkers(p)
			r := rand.New(rand.NewPCG(11, uint64(order)))
			init := make([]uint32, n)
			for i := range init {
				init[i] = r.Uint32N(30) * 40
				if i%17 == 0 {
					init[i] = Null
				}
			}
			batch := New(slices.Clone(init), order)
			serial := New(slices.Clone(init), order)
			// last[v] is the priority v may not move back past; free[v]
			// lifts that for a vertex never placed yet.
			last := slices.Clone(init)
			free := make([]bool, n)
			for v, p := range init {
				free[v] = p == Null
			}
			windows, base := 1, batch.base
			for step := 0; ; step++ {
				pb, vb, okb := batch.NextBucket()
				ps, vs, oks := serial.NextBucket()
				if okb != oks || pb != ps || len(vb) != len(vs) {
					t.Fatalf("order=%d p=%d step %d: NextBucket (%d, %d vertices, %v) vs serial (%d, %d, %v)",
						order, p, step, pb, len(vb), okb, ps, len(vs), oks)
				}
				if !okb {
					break
				}
				if batch.base != base {
					windows, base = windows+1, batch.base
				}
				slices.Sort(vb)
				slices.Sort(vs)
				if !slices.Equal(vb, vs) {
					t.Fatalf("order=%d p=%d step %d: bucket %d holds different vertices", order, p, step, pb)
				}
				// A batch of distinct vertices, large enough for several
				// counting blocks: no-ops, finalizations, and moves (of live
				// and of finalized vertices) to buckets near the frontier
				// and far beyond the window.
				beyond := func(quanta uint32) uint32 {
					if order == Increasing {
						return pb + 40*quanta
					}
					if pb < 40*quanta {
						return Null
					}
					return pb - 40*quanta
				}
				perm := r.Perm(n)[:2*placeBlock+123]
				ids := make([]uint32, len(perm))
				ps2 := make([]uint32, len(perm))
				for i, v := range perm {
					ids[i] = uint32(v)
					to := beyond(1 + r.Uint32N(3))
					switch r.IntN(6) {
					case 0:
						to = batch.Priority(uint32(v))
					case 1:
						to = Null
					case 2:
						to = beyond(1 + r.Uint32N(20))
					}
					if to != Null && !free[v] && (to == last[v] || (to > last[v]) == (order == Increasing)) {
						to = batch.Priority(uint32(v)) // would move back: leave it
					} else if to != Null {
						last[v], free[v] = to, false
					}
					ps2[i] = to
				}
				batch.UpdateBatch(ids, ps2)
				for i, v := range ids {
					serial.Update(v, ps2[i])
				}
				if batch.Live() != serial.Live() {
					t.Fatalf("order=%d p=%d step %d: live %d vs serial %d", order, p, step, batch.Live(), serial.Live())
				}
				if !slices.Equal(batch.prio, serial.prio) {
					t.Fatalf("order=%d p=%d step %d: priorities differ", order, p, step)
				}
				got, want := liveContents(batch), liveContents(serial)
				for s := range got {
					if !maps.Equal(got[s], want[s]) {
						t.Fatalf("order=%d p=%d step %d: slot %d holds %d vertices, serial %d",
							order, p, step, s, len(got[s]), len(want[s]))
					}
				}
				if sz := batch.SizeWords(); sz > 16*n {
					t.Fatalf("order=%d p=%d step %d: %d words for n=%d", order, p, step, sz, n)
				}
				if step == 12 {
					break
				}
			}
			if windows < 3 {
				t.Fatalf("order=%d p=%d: the history stayed within %d windows", order, p, windows)
			}
		}
	}
}

// TestReentryYieldsOnce moves a vertex out of an open bucket and back
// before its stale entry is packed away, so the bucket holds it twice:
// extraction must still yield it once and count it once.
func TestReentryYieldsOnce(t *testing.T) {
	b := New(prios(5, 5, 5, 9), Increasing)
	b.Update(0, 6)
	b.Update(0, 5)
	p, vs, ok := b.NextBucket()
	slices.Sort(vs)
	if !ok || p != 5 || !slices.Equal(vs, []uint32{0, 1, 2}) || b.Live() != 1 {
		t.Fatalf("first pop p=%d vs=%v live=%d, want 5 [0 1 2] live=1", p, vs, b.Live())
	}
	p, vs, ok = b.NextBucket()
	if !ok || p != 9 || !slices.Equal(vs, []uint32{3}) {
		t.Fatalf("second pop p=%d vs=%v ok=%v, want 9 [3]", p, vs, ok)
	}
	if _, _, ok := b.NextBucket(); ok || b.Live() != 0 {
		t.Fatalf("third pop ok=%v live=%d", ok, b.Live())
	}
}

// TestReentryYieldsOnceParallel re-enters a third of a bucket spanning
// several blocks, so the claim runs on several workers at once.
func TestReentryYieldsOnceParallel(t *testing.T) {
	defer parallel.SetWorkers(parallel.Workers())
	parallel.SetWorkers(4)
	const n = 5 * placeBlock
	b := New(slices.Repeat([]uint32{5}, n), Increasing)
	for v := uint32(0); v < n; v += 3 {
		b.Update(v, 6)
		b.Update(v, 5)
	}
	p, vs, ok := b.NextBucket()
	slices.Sort(vs)
	if !ok || p != 5 || len(vs) != n || slices.Compact(vs)[n-1] != n-1 || b.Live() != 0 {
		t.Fatalf("pop p=%d: %d vertices, live=%d", p, len(vs), b.Live())
	}
}

// TestRebaseParallel spreads priorities over many windows so extraction
// re-buckets every live vertex repeatedly, with several workers placing
// them at once (the race detector's view of rebase), and checks the
// structure still yields every vertex exactly once, in order.
func TestRebaseParallel(t *testing.T) {
	defer parallel.SetWorkers(parallel.Workers())
	parallel.SetWorkers(4)
	const n = 40_000
	r := rand.New(rand.NewPCG(13, 14))
	init := make([]uint32, n)
	for i := range init {
		init[i] = r.Uint32N(5000)
	}
	b := New(slices.Clone(init), Increasing)
	seen := make([]bool, n)
	last := uint32(0)
	for {
		p, vs, ok := b.NextBucket()
		if !ok {
			break
		}
		if p < last {
			t.Fatalf("bucket %d after %d", p, last)
		}
		last = p
		for _, v := range vs {
			if seen[v] || init[v] != p {
				t.Fatalf("vertex %d (priority %d) yielded from bucket %d, seen=%v", v, init[v], p, seen[v])
			}
			seen[v] = true
		}
	}
	if i := slices.Index(seen, false); i >= 0 {
		t.Fatalf("vertex %d never yielded", i)
	}
}

// BenchmarkBucketsUpdateBatch is eight k-core-like rounds on a 2^18-vertex
// structure: each moves the same quarter of the vertices one bucket
// closer to the frontier — classification, the 128-slot counting sort, and
// the semi-eager packing the stale entries trigger. Building the
// structure is not timed.
func BenchmarkBucketsUpdateBatch(b *testing.B) {
	const n, rounds = 1 << 18, 8
	r := rand.New(rand.NewPCG(15, 16))
	init := make([]uint32, n)
	for i := range init {
		init[i] = 10 + r.Uint32N(100)
	}
	perm := r.Perm(n)[:n/4]
	ids := make([]uint32, len(perm))
	ps := make([]uint32, len(perm))
	for i, v := range perm {
		ids[i] = uint32(v)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bk := New(slices.Clone(init), Increasing)
		b.StartTimer()
		for round := uint32(1); round <= rounds; round++ {
			for j, v := range ids {
				ps[j] = init[v] - round
			}
			bk.UpdateBatch(ids, ps)
		}
	}
}
