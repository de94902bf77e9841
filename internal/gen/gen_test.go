package gen

import (
	"testing"

	"sage/internal/graph"
)

func TestRMATValidAndDeterministic(t *testing.T) {
	g1 := RMAT(10, 8, 42)
	g2 := RMAT(10, 8, 42)
	if err := g1.Validate(true); err != nil {
		t.Fatal(err)
	}
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatal("RMAT not deterministic")
	}
	for v := uint32(0); v < g1.NumVertices(); v++ {
		if g1.Degree(v) != g2.Degree(v) {
			t.Fatal("RMAT degree sequence not deterministic")
		}
	}
	if g1.NumVertices() != 1024 {
		t.Fatalf("n=%d", g1.NumVertices())
	}
}

func TestRMATSkewed(t *testing.T) {
	g := RMAT(12, 16, 1)
	if g.MaxDegree() < 4*graph.AvgDegree(g) {
		t.Fatalf("R-MAT not skewed: max %d avg %d", g.MaxDegree(), graph.AvgDegree(g))
	}
}

func TestErdosRenyi(t *testing.T) {
	g := ErdosRenyi(1000, 5000, 7)
	if err := g.Validate(true); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() < 8000 { // ~2*5000 minus dedup losses
		t.Fatalf("m=%d", g.NumEdges())
	}
}

func TestPowerLawTail(t *testing.T) {
	g := PowerLaw(5000, 5, 3)
	if err := g.Validate(true); err != nil {
		t.Fatal(err)
	}
	if g.MaxDegree() < 8*graph.AvgDegree(g) {
		t.Fatalf("power law not heavy-tailed: max %d avg %d", g.MaxDegree(), graph.AvgDegree(g))
	}
}

func TestGrid2D(t *testing.T) {
	g := Grid2D(10, 10, false)
	if err := g.Validate(true); err != nil {
		t.Fatal(err)
	}
	// Interior degree 4, corner degree 2.
	if g.Degree(0) != 2 {
		t.Fatalf("corner degree %d", g.Degree(0))
	}
	if g.Degree(11) != 4 {
		t.Fatalf("interior degree %d", g.Degree(11))
	}
	// 2*10*9*2 arcs.
	if g.NumEdges() != 360 {
		t.Fatalf("m=%d", g.NumEdges())
	}
	torus := Grid2D(10, 10, true)
	for v := uint32(0); v < 100; v++ {
		if torus.Degree(v) != 4 {
			t.Fatalf("torus degree %d at %d", torus.Degree(v), v)
		}
	}
}

func TestStarChainCycle(t *testing.T) {
	s := Star(100)
	if s.Degree(0) != 99 || s.Degree(5) != 1 {
		t.Fatal("star degrees")
	}
	c := Chain(50)
	if c.Degree(0) != 1 || c.Degree(25) != 2 || c.NumEdges() != 98 {
		t.Fatal("chain shape")
	}
	cy := Cycle(50)
	for v := uint32(0); v < 50; v++ {
		if cy.Degree(v) != 2 {
			t.Fatal("cycle degree")
		}
	}
}

func TestCompleteBipartite(t *testing.T) {
	g := CompleteBipartite(3, 4)
	if g.NumVertices() != 7 || g.NumEdges() != 24 {
		t.Fatalf("K3,4: n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if g.Degree(0) != 4 || g.Degree(3) != 3 {
		t.Fatal("K3,4 degrees")
	}
}

func TestAddUniformWeights(t *testing.T) {
	g := RMAT(8, 8, 5)
	wg := AddUniformWeights(g, 11)
	if !wg.Weighted() {
		t.Fatal("not weighted")
	}
	if wg.NumEdges() != g.NumEdges() {
		t.Fatalf("edge count changed: %d vs %d", wg.NumEdges(), g.NumEdges())
	}
	// Weights must be symmetric and in [1, log2 n).
	maxW := int32(8)
	for v := uint32(0); v < wg.NumVertices(); v++ {
		nghs := wg.Neighbors(v)
		ws := wg.NeighborWeights(v)
		for i, u := range nghs {
			if ws[i] < 1 || ws[i] >= maxW {
				t.Fatalf("weight %d out of [1,%d)", ws[i], maxW)
			}
			back, ok := wg.EdgeWeight(u, v)
			if !ok || back != ws[i] {
				t.Fatalf("asymmetric weight (%d,%d): %d vs %d", v, u, ws[i], back)
			}
		}
	}
}

func TestFig2CorpusEnvelope(t *testing.T) {
	entries := Fig2Corpus(42)
	if len(entries) != 42 {
		t.Fatalf("corpus size %d", len(entries))
	}
	dense := 0
	for _, e := range entries {
		if e.AvgDegree >= 10 {
			dense++
		}
		if e.N < 1<<14 || e.N > 1<<20 {
			t.Fatalf("entry n=%d out of range", e.N)
		}
	}
	// The paper's claim: over 90% of graphs have average degree >= 10.
	if frac := float64(dense) / float64(len(entries)); frac < 0.9 {
		t.Fatalf("only %.0f%% of corpus at davg>=10", 100*frac)
	}
}

func TestBuildEntrySmall(t *testing.T) {
	e := CorpusEntry{Name: "t", Kind: "social", N: 1 << 10, AvgDegree: 12}
	g, d := BuildEntry(e, 3)
	if err := g.Validate(true); err != nil {
		t.Fatal(err)
	}
	if d < 4 {
		t.Fatalf("realized avg degree %.1f too small", d)
	}
}
