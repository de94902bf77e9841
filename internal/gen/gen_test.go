package gen

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"
	"runtime"
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

// TestRMATDigest pins RMAT's output bytes, not just its shape: the CRC-32
// of the little-endian offsets and edges arrays, captured before RMAT drew
// through the concrete PCG and picked quadrants without branches. Any
// change to the stream, the float mapping or the quadrant comparisons
// moves them.
func TestRMATDigest(t *testing.T) {
	for _, c := range []struct {
		logN, deg         int
		seed, m           uint64
		offsets, edgesCRC uint32
	}{
		{10, 8, 42, 6130, 0x1a101ab0, 0x4ddc96b3},
		{12, 16, 1, 48802, 0x84c1c9d7, 0x308589dc},
		{14, 16, 5, 212322, 0xb666decd, 0xa5c82725},
	} {
		g := RMAT(c.logN, c.deg, c.seed)
		if got := g.NumEdges(); got != c.m {
			t.Errorf("RMAT(%d,%d,%d): m=%d, want %d", c.logN, c.deg, c.seed, got, c.m)
		}
		if got := crcLE(t, g.Offsets()); got != c.offsets {
			t.Errorf("RMAT(%d,%d,%d): offsets CRC %#08x, want %#08x", c.logN, c.deg, c.seed, got, c.offsets)
		}
		if got := crcLE(t, g.Edges()); got != c.edgesCRC {
			t.Errorf("RMAT(%d,%d,%d): edges CRC %#08x, want %#08x", c.logN, c.deg, c.seed, got, c.edgesCRC)
		}
	}
}

func crcLE(t *testing.T, words any) uint32 {
	h := crc32.NewIEEE()
	if err := binary.Write(h, binary.LittleEndian, words); err != nil {
		t.Fatal(err)
	}
	return h.Sum32()
}

// TestRMATQuadrantShares pins what RMAT's doc says one level draws:
// (0,0) 0.57, (0,1) 0.19, (1,0) never, (1,1) 0.24 — not Graph500's
// (0.57, 0.19, 0.19, 0.05), because the (1,0) threshold equals the (0,1)
// one.
func TestRMATQuadrantShares(t *testing.T) {
	const draws = 200_000
	var count [4]int
	r := pcg(7, 0)
	for i := 0; i < draws; i++ {
		e := rmatEdge(r, 1)
		count[e.U<<1|e.V]++
	}
	for q, want := range []float64{0.57, 0.19, 0, 0.24} {
		if got := float64(count[q]) / draws; math.Abs(got-want) > 0.005 {
			t.Errorf("quadrant (%d,%d): share %.4f, want %.2f", q>>1, q&1, got, want)
		}
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

// rebuildWeights is AddUniformWeights as an edge-list rebuild: every arc
// with its hashed weight, sorted, min-folded and packed again by
// FromWeightedEdges. It is the oracle for the CSR-copying path.
func rebuildWeights(g *graph.Graph, seed uint64) *graph.Graph {
	n := g.NumVertices()
	maxW := max(int32(math.Log2(float64(n))), 2)
	var edges []graph.WEdge
	for v := uint32(0); v < n; v++ {
		for _, u := range g.Neighbors(v) {
			h := hashPair(uint64(min(u, v))<<32|uint64(max(u, v)), seed)
			edges = append(edges, graph.WEdge{U: v, V: u, W: 1 + int32(h%uint64(maxW-1))})
		}
	}
	return graph.FromWeightedEdges(n, edges, graph.BuildOpts{})
}

func TestUniformWeightsMatchRebuild(t *testing.T) {
	isolated := graph.FromEdges(50, []graph.Edge{{U: 3, V: 7}, {U: 7, V: 40}, {U: 3, V: 40}, {U: 12, V: 13}},
		graph.BuildOpts{Symmetrize: true})
	cases := map[string]*graph.Graph{
		"rmat":        RMAT(12, 16, 3),
		"erdos-renyi": ErdosRenyi(3000, 20000, 4),
		"power-law":   PowerLaw(2000, 6, 5),
		"grid":        Grid2D(30, 40, false),
		"torus":       Grid2D(17, 9, true),
		"star":        Star(300),
		"chain":       Chain(200),
		"cycle":       Cycle(77),
		"bipartite":   CompleteBipartite(13, 21),
		"isolated":    isolated,
		"reweighted":  AddUniformWeights(RMAT(10, 8, 6), 99),
		"one-vertex":  Chain(1),
	}
	for name, g := range cases {
		for _, seed := range []uint64{0, 11, 0x9e3779b97f4a7c15} {
			got, want := AddUniformWeights(g, seed), rebuildWeights(g, seed)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s seed %d: AddUniformWeights differs from the edge-list rebuild", name, seed)
			}
		}
	}
}

// TestUniformWeightsAllocation bounds one weighting's allocation by the
// three arrays it returns (offsets, edges and weights: 8(n+1) + 8m bytes)
// with a quarter of slack: the structure is copied, not rebuilt.
func TestUniformWeightsAllocation(t *testing.T) {
	g := RMAT(14, 16, 5)
	arrays := 8*(float64(g.NumVertices())+1) + 8*float64(g.NumEdges())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	AddUniformWeights(g, 7)
	runtime.ReadMemStats(&after)
	if bytes := after.TotalAlloc - before.TotalAlloc; float64(bytes) > 1.25*arrays {
		t.Fatalf("AddUniformWeights allocated %d B on RMAT-14, over 1.25 × %.0f B", bytes, arrays)
	}
}

// BenchmarkGenerateRMATWeighted times the weighted R-MAT input the
// benchmark and sage-gen -weighted make, at RMAT-16.
func BenchmarkGenerateRMATWeighted(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		AddUniformWeights(RMAT(16, 16, 1), 2)
	}
}
