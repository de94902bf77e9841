package gbbs

import (
	"slices"
	"testing"

	"sage/internal/algos"
	"sage/internal/costmodel"
	"sage/internal/frontier"
	"sage/internal/gen"
	"sage/internal/gfilter"
	"sage/internal/parallel"
	"sage/internal/psam"
	"sage/internal/refalgo"
)

func TestMutFilterEquivalentResults(t *testing.T) {
	g := gen.RMAT(9, 10, 3)

	// Triangle counting: Sage filter vs GBBS mutation must agree.
	want := refalgo.Triangles(g)
	o := Options(psam.NewEnv(psam.AppDirect))
	res := algos.TriangleCount(g, o)
	if res.Count != want {
		t.Fatalf("gbbs triangle count %d want %d", res.Count, want)
	}

	// Maximal matching validity under the mutation filter.
	o = Options(psam.NewEnv(psam.AppDirect))
	match := algos.MaximalMatching(g, o)
	used := make([]bool, g.NumVertices())
	for _, e := range match {
		if used[e.U] || used[e.V] {
			t.Fatal("vertex reused")
		}
		used[e.U], used[e.V] = true, true
	}
	for v := uint32(0); v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(v) {
			if !used[v] && !used[u] {
				t.Fatalf("edge (%d,%d) free", v, u)
			}
		}
	}

	// Biconnectivity agrees with the serial oracle under mutation too.
	o = Options(psam.NewEnv(psam.AppDirect))
	bic := algos.Biconnectivity(g, o)
	ref := refalgo.Biconnected(g)
	got := map[[2]uint32]uint32{}
	for v := uint32(0); v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(v) {
			if v < u {
				got[[2]uint32{v, u}] = bic.EdgeLabel(v, u)
			}
		}
	}
	if !refalgo.SamePartition(ref, got) {
		t.Fatal("gbbs biconnectivity partition differs")
	}
}

func TestMutationChargesNVRAMWrites(t *testing.T) {
	// The headline asymmetry: on NVRAM, GBBS-style packing writes to the
	// graph; Sage's filter does not.
	g := gen.RMAT(10, 16, 7)

	gbbsEnv := psam.NewEnv(psam.AppDirect)
	algos.TriangleCount(g, Options(gbbsEnv))
	if gbbsEnv.Totals().NVRAMWrites == 0 {
		t.Fatal("gbbs orientation pack charged no NVRAM writes")
	}

	sageEnv := psam.NewEnv(psam.AppDirect)
	algos.TriangleCount(g, algos.Defaults().WithEnv(sageEnv))
	if sageEnv.Totals().NVRAMWrites != 0 {
		t.Fatal("sage wrote to NVRAM")
	}

	// And the cost gap grows with omega (Table 1: GBBS Θ(ωW) vs Sage W).
	low, high := costmodel.Optane(), costmodel.Optane()
	low.NVRAMRead, low.Omega = 3, 1
	high.NVRAMRead, high.Omega = 3, 16
	gbbsGrowth := float64(high.Cost(gbbsEnv.Totals())) / float64(low.Cost(gbbsEnv.Totals()))
	sageGrowth := float64(high.Cost(sageEnv.Totals())) / float64(low.Cost(sageEnv.Totals()))
	if sageGrowth != 1.0 {
		t.Fatalf("sage cost grew %.2fx with omega", sageGrowth)
	}
	if gbbsGrowth <= 1.0 {
		t.Fatalf("gbbs cost did not grow with omega (%.2fx)", gbbsGrowth)
	}
}

func TestMutFilterPackSemantics(t *testing.T) {
	g := gen.Star(50)
	f := NewMutFilter(g, 0, psam.NewEnv(psam.DRAMOnly)).(*MutFilter)
	nd, removed := f.PackVertex(0, 0, func(_, ngh uint32) bool { return ngh%2 == 0 })
	if int(nd)+int(removed) != 49 {
		t.Fatalf("nd=%d removed=%d", nd, removed)
	}
	seen := f.ActiveList(0, 0, nil, nil)
	for _, ngh := range seen {
		if ngh%2 != 0 {
			t.Fatalf("neighbor %d should be gone", ngh)
		}
	}
	if uint32(len(seen)) != nd {
		t.Fatalf("listed %d, degree %d", len(seen), nd)
	}
}

// TestPackKeepsLiveCountExact packs from several workers at once — the
// whole graph, a subset, and lone PackVertex calls interleaved across
// workers — through Sage's filter and through the mutable image, and
// requires the maintained live count to equal the sum of the active
// degrees after each. Under -race it also checks that the bulk packs'
// per-block fold shares nothing it should not.
func TestPackKeepsLiveCountExact(t *testing.T) {
	old := parallel.Workers()
	defer parallel.SetWorkers(old)
	parallel.SetWorkers(4)
	g := gen.RMAT(11, 16, 29)
	n := g.NumVertices()
	type packer interface {
		algos.EdgeFilter
		PackVertex(worker int, v uint32, pred func(u, ngh uint32) bool) (uint32, int64)
	}
	for name, f := range map[string]packer{
		"gfilter.Filter": gfilter.New(g, 64, psam.NewEnv(psam.AppDirect)),
		"gbbs.MutFilter": NewMutFilter(g, 0, psam.NewEnv(psam.AppDirect)).(*MutFilter),
	} {
		check := func(where string) {
			t.Helper()
			var sum int64
			for v := uint32(0); v < n; v++ {
				sum += int64(f.Degree(v))
			}
			if f.ActiveEdges() != sum || f.NumEdges() != uint64(sum) {
				t.Fatalf("%s after %s: ActiveEdges %d, NumEdges %d, active degrees sum to %d", name, where, f.ActiveEdges(), f.NumEdges(), sum)
			}
		}
		check("construction")
		if left := f.FilterEdges(func(u, ngh uint32) bool { return (u+ngh)%5 != 0 }); left != f.ActiveEdges() {
			t.Fatalf("%s: FilterEdges returned %d, ActiveEdges %d", name, left, f.ActiveEdges())
		}
		check("FilterEdges")
		var third []uint32
		for v := uint32(0); v < n; v += 3 {
			third = append(third, v)
		}
		_, degs := f.EdgeMapPack(frontier.FromSparse(n, third), func(u, ngh uint32) bool { return (u^ngh)%3 != 0 })
		for i, v := range third {
			if degs[i] != f.Degree(v) {
				t.Fatalf("%s: EdgeMapPack reported degree %d for %d, the filter says %d", name, degs[i], v, f.Degree(v))
			}
		}
		check("EdgeMapPack")
		parallel.ForWorker(int(n), 1, func(w, i int) {
			if i%2 == 1 {
				f.PackVertex(w, uint32(i), func(_, ngh uint32) bool { return ngh%2 == 0 })
			}
		})
		check("lone PackVertex calls")
		if f.FilterEdges(func(_, _ uint32) bool { return false }) != 0 {
			t.Fatalf("%s: %d edges survive a pack that keeps none", name, f.ActiveEdges())
		}
		check("emptying")
	}
}

// TestMutFilterIntersectMarked: over the packed prefix the probe
// intersection is ActiveList plus a plain merge, billed as one read of
// the live list — for a neighbour's list (the triangle-count shape), the
// empty list, one element, and lists ending before, at and past v's.
func TestMutFilterIntersectMarked(t *testing.T) {
	g := gen.RMAT(9, 16, 5)
	n := g.NumVertices()
	env := psam.NewEnv(psam.AppDirect)
	f := NewMutFilter(g, 0, env).(*MutFilter)
	f.FilterEdges(func(u, ngh uint32) bool { return (u+ngh)%3 != 0 })
	var stats gfilter.IntersectStats
	mark := make([]uint64, (n+63)/64)
	for v := uint32(0); v < n; v++ {
		list := f.ActiveList(0, v, nil, nil)
		as := [][]uint32{f.ActiveList(0, (v*31+7)%n, nil, nil), nil, {v}}
		if len(list) > 0 {
			first, last := list[0], list[len(list)-1]
			as = append(as, []uint32{last})
			if first > 0 {
				as = append(as, []uint32{first - 1}, []uint32{first / 2, first})
			}
			if last+1 < n {
				as = append(as, []uint32{first, last + 1})
			}
		}
		for _, a := range as {
			var want []uint32
			var steps int64
			for i, j := 0, 0; i < len(a) && j < len(list); steps++ {
				switch {
				case a[i] < list[j]:
					i++
				case a[i] > list[j]:
					j++
				default:
					want = append(want, a[i])
					i++
					j++
				}
			}
			for _, x := range a {
				mark[x>>6] |= 1 << (x & 63)
			}
			before, reads := stats, env.Totals().NVRAMReads
			got := f.IntersectMarked(0, v, a, mark, nil, &stats)
			clear(mark)
			if !slices.Equal(got, want) {
				t.Fatalf("v=%d a=%v: got %v want %v", v, a, got, want)
			}
			if stats.MergeSteps-before.MergeSteps != steps || stats.DecodedEdges-before.DecodedEdges != int64(len(list)) {
				t.Fatalf("v=%d a=%v: stats moved by %+v - %+v, want %d steps and %d decoded", v, a, stats, before, steps, len(list))
			}
			if got := env.Totals().NVRAMReads - reads; got != int64(len(list)) {
				t.Fatalf("v=%d: charged %d NVRAM words for a live list of %d", v, got, len(list))
			}
		}
	}
}
