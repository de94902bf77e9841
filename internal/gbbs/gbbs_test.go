package gbbs

import (
	"testing"

	"sage/internal/algos"
	"sage/internal/costmodel"
	"sage/internal/gen"
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
	var seen []uint32
	f.IterActive(0, 0, func(ngh uint32) bool {
		if ngh%2 != 0 {
			t.Fatalf("neighbor %d should be gone", ngh)
		}
		seen = append(seen, ngh)
		return true
	})
	if uint32(len(seen)) != nd {
		t.Fatalf("iterated %d, degree %d", len(seen), nd)
	}
}
