package sage_test

import (
	"context"
	"path/filepath"
	"testing"

	"sage"
)

// bg is the context of the test calls that never cancel.
var bg = context.Background()

// weighted attaches uniform weights, failing the test on misuse (the
// call sites all hold CSR graphs, so the error path never fires here).
func weighted(t testing.TB, g *sage.Graph, seed uint64) *sage.Graph {
	t.Helper()
	wg, err := g.WithUniformWeights(seed)
	if err != nil {
		t.Fatalf("WithUniformWeights: %v", err)
	}
	return wg
}

func TestPublicAPIQuickstart(t *testing.T) {
	g := sage.GenerateRMAT(10, 8, 1)
	if g.NumVertices() != 1024 {
		t.Fatalf("n=%d", g.NumVertices())
	}
	e := sage.NewEngine(sage.WithMode(sage.AppDirect))
	parents := sage.Must(e.BFS(bg, g, 0))
	if parents[0] != 0 {
		t.Fatal("source not its own parent")
	}
	st := e.Stats()
	if st.NVRAMWrites != 0 {
		t.Fatalf("sage wrote %d NVRAM words", st.NVRAMWrites)
	}
	if st.NVRAMReads == 0 || st.PSAMCost == 0 {
		t.Fatal("no accounting recorded")
	}
	e.ResetStats()
	if e.Stats().PSAMCost != 0 {
		t.Fatal("reset failed")
	}
}

func TestPublicAPIAllAlgorithms(t *testing.T) {
	g := sage.GenerateRMAT(9, 8, 2)
	wg := weighted(t, g, 3)
	e := sage.NewEngine()

	if got := sage.Must(e.BFS(bg, g, 0)); len(got) != int(g.NumVertices()) {
		t.Fatal("bfs")
	}
	if got := sage.Must(e.WBFS(bg, wg, 0)); got[0] != 0 {
		t.Fatal("wbfs")
	}
	if got := sage.Must(e.BellmanFord(bg, wg, 0)); got[0] != 0 {
		t.Fatal("bellman-ford")
	}
	if got := sage.Must(e.WidestPath(bg, wg, 0)); len(got) == 0 {
		t.Fatal("widest")
	}
	if got := sage.Must(e.WidestPathBucketed(bg, wg, 0)); len(got) == 0 {
		t.Fatal("widest bucketed")
	}
	if got := sage.Must(e.Betweenness(bg, g, 0)); got[0] != 0 {
		t.Fatal("betweenness source dependency must be 0")
	}
	if got := sage.Must(e.Spanner(bg, g, 4)); len(got) == 0 {
		t.Fatal("spanner")
	}
	if got := sage.Must(e.LDD(bg, g, 0.2)); len(got.Cluster) == 0 {
		t.Fatal("ldd")
	}
	if got := sage.Must(e.Connectivity(bg, g)); len(got) == 0 {
		t.Fatal("connectivity")
	}
	if got := sage.Must(e.SpanningForest(bg, g)); len(got) == 0 {
		t.Fatal("forest")
	}
	if got := sage.Must(e.Biconnectivity(bg, g)); len(got.Label) == 0 {
		t.Fatal("biconnectivity")
	}
	if got := sage.Must(e.MIS(bg, g)); len(got) == 0 {
		t.Fatal("mis")
	}
	if got := sage.Must(e.MaximalMatching(bg, g)); len(got) == 0 {
		t.Fatal("matching")
	}
	if got := sage.Must(e.Coloring(bg, g)); len(got) == 0 {
		t.Fatal("coloring")
	}
	if got := sage.Must(e.KCore(bg, g)); len(got) == 0 {
		t.Fatal("kcore")
	}
	if got := sage.Must(e.ApproxDensestSubgraph(bg, g)); got.Density <= 0 {
		t.Fatal("densest")
	}
	if got := sage.Must(e.TriangleCount(bg, g)); got.Count < 0 {
		t.Fatal("triangles")
	}
	if ranks, iters, err := e.PageRank(bg, g, 1e-6, 50); err != nil || len(ranks) == 0 || iters == 0 {
		t.Fatal("pagerank")
	}
}

func TestPublicAPICompressedParity(t *testing.T) {
	g := sage.GenerateRMAT(9, 10, 4)
	cg := g.Compress(64)
	if !cg.Compressed() || g.Compressed() {
		t.Fatal("compression flags")
	}
	e1 := sage.NewEngine()
	e2 := sage.NewEngine()
	a := sage.Must(e1.Connectivity(bg, g))
	b := sage.Must(e2.Connectivity(bg, cg))
	for v := range a {
		if (a[v] == a[0]) != (b[v] == b[0]) {
			t.Fatal("compressed connectivity differs")
		}
	}
	t1 := sage.Must(e1.TriangleCount(bg, g)).Count
	t2 := sage.Must(sage.NewEngine(sage.WithFilterBlockSize(64)).TriangleCount(bg, cg)).Count
	if t1 != t2 {
		t.Fatalf("triangle counts differ: %d vs %d", t1, t2)
	}
}

func TestPublicAPISaveLoad(t *testing.T) {
	g := weighted(t, sage.GenerateGrid(16, 16, false), 5)
	path := filepath.Join(t.TempDir(), "g.sg")
	if err := sage.Create(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := sage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() || !g2.Weighted() {
		t.Fatal("round trip mismatch")
	}
	e := sage.NewEngine()
	d1 := sage.Must(e.WBFS(bg, g, 0))
	d2 := sage.Must(e.WBFS(bg, g2, 0))
	for v := range d1 {
		if d1[v] != d2[v] {
			t.Fatal("distances differ after reload")
		}
	}
}

func TestPublicAPIFromEdges(t *testing.T) {
	g := sage.FromEdges(4, []sage.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	if g.NumEdges() != 6 {
		t.Fatalf("m=%d", g.NumEdges())
	}
	wg := sage.FromWeightedEdges(3, []sage.WeightedEdge{{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 2}})
	e := sage.NewEngine()
	d := sage.Must(e.WBFS(bg, wg, 0))
	if d[2] != 7 {
		t.Fatalf("dist=%d want 7", d[2])
	}
}

func TestEngineModes(t *testing.T) {
	g := sage.GenerateRMAT(9, 8, 6)
	for _, mode := range []sage.Mode{sage.DRAM, sage.AppDirect, sage.MemoryMode, sage.NVRAMAll} {
		opts := []sage.Option{sage.WithMode(mode), sage.WithSeed(9)}
		if mode == sage.MemoryMode {
			opts = append(opts, sage.WithCache(g.SizeWords()/4))
		}
		e := sage.NewEngine(opts...)
		labels := sage.Must(e.Connectivity(bg, g))
		if len(labels) != int(g.NumVertices()) {
			t.Fatalf("mode %v: bad result", mode)
		}
		st := e.Stats()
		switch mode {
		case sage.DRAM:
			if st.NVRAMReads != 0 {
				t.Fatal("DRAM mode touched NVRAM")
			}
		case sage.AppDirect:
			if st.NVRAMReads == 0 || st.NVRAMWrites != 0 {
				t.Fatalf("AppDirect stats: %+v", st)
			}
		case sage.MemoryMode:
			if st.CacheMisses == 0 {
				t.Fatal("MemoryMode never missed")
			}
		}
	}
}

func TestWorkersControl(t *testing.T) {
	old := sage.Workers()
	defer sage.SetWorkers(old)
	sage.SetWorkers(2)
	if sage.Workers() != 2 {
		t.Fatal("SetWorkers")
	}
	g := sage.GenerateRMAT(8, 8, 7)
	e := sage.NewEngine()
	if got := sage.Must(e.BFS(bg, g, 0)); len(got) != int(g.NumVertices()) {
		t.Fatal("bfs under 2 workers")
	}
}

func TestCostModelOption(t *testing.T) {
	g := sage.GenerateRMAT(9, 8, 8)
	raised := sage.CostModelOptane()
	raised.NVRAMRead = 3
	e1 := sage.NewEngine(sage.WithModel(sage.CostModelOptane()))
	e2 := sage.NewEngine(sage.WithModel(raised))
	sage.Must(e1.BFS(bg, g, 0))
	sage.Must(e2.BFS(bg, g, 0))
	if e2.Stats().PSAMCost <= e1.Stats().PSAMCost {
		t.Fatal("raising the read cost must raise the cost")
	}
}

func TestPublicAPITextFormat(t *testing.T) {
	g := sage.GenerateGrid(8, 8, false)
	path := filepath.Join(t.TempDir(), "g.adj")
	if err := sage.Create(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := sage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("text round trip")
	}
}

func TestPublicAPIRelabelByDegree(t *testing.T) {
	g := sage.GeneratePowerLaw(1<<10, 4, 3)
	h, err := g.RelabelByDegree()
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != g.NumEdges() {
		t.Fatal("relabel changed the edge count")
	}
	// Hubs-first: vertex 0 of the relabeled graph has the max degree.
	maxDeg := uint32(0)
	for v := uint32(0); v < h.NumVertices(); v++ {
		if h.Degree(v) > maxDeg {
			maxDeg = h.Degree(v)
		}
	}
	if h.Degree(0) != maxDeg {
		t.Fatal("vertex 0 is not the hub after degree relabeling")
	}
	// Analytics agree across the relabeling.
	e := sage.NewEngine()
	if sage.Must(e.TriangleCount(bg, g)).Count != sage.Must(e.TriangleCount(bg, h)).Count {
		t.Fatal("triangle count changed under relabeling")
	}
}

func TestPublicAPILocalCluster(t *testing.T) {
	g := sage.GeneratePowerLaw(1<<10, 6, 5)
	e := sage.NewEngine()
	res := sage.Must(e.LocalCluster(bg, g, 0, 0.85, 100))
	if len(res.Members) == 0 || res.Conductance <= 0 || res.Conductance > 1.01 {
		t.Fatalf("cluster: %d members, conductance %.3f", len(res.Members), res.Conductance)
	}
}

func TestPublicAPIExtensions(t *testing.T) {
	g := sage.GenerateRMAT(9, 8, 11)
	e := sage.NewEngine()
	if c3 := sage.Must(e.KCliqueCount(bg, g, 3)); c3 != sage.Must(e.TriangleCount(bg, g)).Count {
		t.Fatal("3-cliques != triangles")
	}
	ppr, _, err := e.PersonalizedPageRank(bg, g, 0, 0.85, 1e-9, 50)
	if err != nil {
		t.Fatal(err)
	}
	var mass float64
	for _, r := range ppr {
		mass += r
	}
	if mass < 0.5 || mass > 1.001 {
		t.Fatalf("ppr mass %.3f", mass)
	}
	res := sage.Must(e.KTruss(bg, g))
	if len(res.Trussness) == 0 {
		t.Fatal("empty truss output")
	}
}

func TestPublicAPIWeightedCompression(t *testing.T) {
	g := weighted(t, sage.GenerateRMAT(9, 10, 31), 7)
	cg := g.Compress(64)
	if !cg.Weighted() {
		t.Fatal("weights lost in compression")
	}
	e := sage.NewEngine()
	d1 := sage.Must(e.WBFS(bg, g, 0))
	d2 := sage.Must(e.WBFS(bg, cg, 0))
	for v := range d1 {
		if d1[v] != d2[v] {
			t.Fatalf("weighted compressed distance differs at %d", v)
		}
	}
}
