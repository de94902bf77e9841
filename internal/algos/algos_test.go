package algos

import (
	"math"
	"testing"

	"sage/internal/compress"
	"sage/internal/gen"
	"sage/internal/graph"
	"sage/internal/parallel"
	"sage/internal/psam"
	"sage/internal/refalgo"
	"sage/internal/traverse"
)

// battery is the shared set of structurally diverse test graphs.
func battery() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"rmat":  gen.RMAT(9, 10, 1),
		"er":    gen.ErdosRenyi(600, 2500, 2),
		"plaw":  gen.PowerLaw(800, 4, 3),
		"grid":  gen.Grid2D(25, 25, false),
		"star":  gen.Star(300),
		"chain": gen.Chain(200),
		"cycle": gen.Cycle(150),
		"two-comp": graph.FromEdges(8, []graph.Edge{
			{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 4, V: 5}, {U: 5, V: 6},
		}, graph.BuildOpts{Symmetrize: true}),
	}
}

func opts() *Options { return Defaults() }

func optsEnv() *Options {
	return Defaults().WithEnv(psam.NewEnv(psam.AppDirect))
}

func TestBFSDistancesMatchSerial(t *testing.T) {
	for name, g := range battery() {
		want := refalgo.BFSDistances(g, 0)
		parents := BFS(g, opts(), 0)
		// Parent array -> distances by walking up.
		for v := uint32(0); v < g.NumVertices(); v++ {
			if (parents[v] == Infinity) != (want[v] == Infinity) {
				t.Fatalf("%s: reachability mismatch at %d", name, v)
			}
			if parents[v] == Infinity || v == 0 {
				continue
			}
			// Parent must be exactly one hop closer.
			if want[parents[v]]+1 != want[v] {
				t.Fatalf("%s: parent of %d (dist %d) is %d (dist %d)",
					name, v, want[v], parents[v], want[parents[v]])
			}
			if !g.HasEdge(parents[v], v) {
				t.Fatalf("%s: parent edge missing", name)
			}
		}
	}
}

func TestBFSAllStrategies(t *testing.T) {
	g := gen.RMAT(9, 10, 4)
	want := refalgo.BFSDistances(g, 0)
	for _, strat := range []traverse.Strategy{traverse.Chunked, traverse.Blocked, traverse.Sparse} {
		o := opts()
		o.Traverse.Strategy = strat
		parents := BFS(g, o, 0)
		for v := uint32(0); v < g.NumVertices(); v++ {
			if (parents[v] == Infinity) != (want[v] == ^uint32(0)) {
				t.Fatalf("strategy %v: mismatch at %d", strat, v)
			}
		}
	}
}

func TestBFSOnCompressedGraph(t *testing.T) {
	g := gen.RMAT(9, 10, 5)
	cg := compress.Compress(g, 64)
	want := refalgo.BFSDistances(g, 0)
	parents := BFS(cg, opts(), 0)
	for v := uint32(0); v < g.NumVertices(); v++ {
		if (parents[v] == Infinity) != (want[v] == ^uint32(0)) {
			t.Fatalf("compressed BFS mismatch at %d", v)
		}
	}
}

func TestWBFSMatchesDijkstra(t *testing.T) {
	for name, g := range battery() {
		wg := gen.AddUniformWeights(g, 7)
		want := refalgo.Dijkstra(wg, 0)
		got := WBFS(wg, opts(), 0)
		for v := uint32(0); v < wg.NumVertices(); v++ {
			w := want[v]
			if w == math.MaxInt64 {
				if got[v] != Infinity {
					t.Fatalf("%s: %d should be unreachable, got %d", name, v, got[v])
				}
				continue
			}
			if int64(got[v]) != w {
				t.Fatalf("%s: dist[%d]=%d want %d", name, v, got[v], w)
			}
		}
	}
}

func TestBellmanFordMatchesDijkstra(t *testing.T) {
	for name, g := range battery() {
		wg := gen.AddUniformWeights(g, 9)
		want := refalgo.Dijkstra(wg, 0)
		got := BellmanFord(wg, opts(), 0)
		for v := uint32(0); v < wg.NumVertices(); v++ {
			if want[v] == math.MaxInt64 {
				if got[v] != InfDist {
					t.Fatalf("%s: %d reachable?", name, v)
				}
				continue
			}
			if got[v] != want[v] {
				t.Fatalf("%s: dist[%d]=%d want %d", name, v, got[v], want[v])
			}
		}
	}
}

func TestWidestPathBothVariants(t *testing.T) {
	for name, g := range battery() {
		wg := gen.AddUniformWeights(g, 13)
		want := refalgo.WidestPath(wg, 0)
		for variant, run := range map[string]func() []int64{
			"bellman-ford": func() []int64 { return WidestPath(wg, opts(), 0) },
			"bucketed":     func() []int64 { return WidestPathBucketed(wg, opts(), 0) },
		} {
			got := run()
			for v := uint32(0); v < wg.NumVertices(); v++ {
				switch {
				case want[v] == math.MinInt64:
					if got[v] != NegInf {
						t.Fatalf("%s/%s: %d should be unreachable", name, variant, v)
					}
				case want[v] == math.MaxInt64:
					if got[v] != InfDist {
						t.Fatalf("%s/%s: src width wrong", name, variant)
					}
				default:
					if got[v] != want[v] {
						t.Fatalf("%s/%s: width[%d]=%d want %d", name, variant, v, got[v], want[v])
					}
				}
			}
		}
	}
}

func TestBetweennessMatchesBrandes(t *testing.T) {
	for name, g := range battery() {
		want := refalgo.Betweenness(g, 0)
		got := Betweenness(g, opts(), 0)
		for v := range want {
			if math.Abs(got[v]-want[v]) > 1e-6*(1+math.Abs(want[v])) {
				t.Fatalf("%s: delta[%d]=%v want %v", name, v, got[v], want[v])
			}
		}
	}
}

func TestLDDIsValidPartition(t *testing.T) {
	g := gen.RMAT(10, 12, 8)
	res := LDD(g, opts(), 0.2, 42)
	n := g.NumVertices()
	for v := uint32(0); v < n; v++ {
		c := res.Cluster[v]
		if c == Infinity {
			t.Fatalf("vertex %d unclustered", v)
		}
		if res.Cluster[c] != c {
			t.Fatalf("center %d not in own cluster", c)
		}
		// Parents chain toward the center within the cluster.
		p := res.Parent[v]
		if p == Infinity {
			t.Fatalf("vertex %d has no parent", v)
		}
		if v != c {
			if res.Cluster[p] != c {
				t.Fatalf("parent of %d in different cluster", v)
			}
			if p != c && !g.HasEdge(p, v) {
				t.Fatalf("parent edge (%d,%d) missing", p, v)
			}
		}
	}
}

func TestLDDInterClusterBound(t *testing.T) {
	// With beta=0.2 the expected inter-cluster fraction is well under
	// beta*m on real graphs (§5.3); assert a loose 2*beta*m bound.
	g := gen.RMAT(11, 16, 4)
	o := opts()
	res := LDD(g, o, 0.2, 7)
	inter := CountInterCluster(g, o, res.Cluster)
	if inter > int64(float64(g.NumEdges())*0.4) {
		t.Fatalf("inter-cluster arcs %d of %d", inter, g.NumEdges())
	}
}

func TestConnectivityMatchesUnionFind(t *testing.T) {
	for name, g := range battery() {
		want := refalgo.Components(g, 0)
		got := Connectivity(g, opts())
		if !refalgo.SameComponents(want, got) {
			t.Fatalf("%s: component partition differs", name)
		}
	}
}

func TestConnectivityOnCompressed(t *testing.T) {
	g := gen.RMAT(9, 10, 11)
	cg := compress.Compress(g, 64)
	want := refalgo.Components(g, 0)
	got := Connectivity(cg, opts())
	if !refalgo.SameComponents(want, got) {
		t.Fatal("compressed connectivity differs")
	}
}

func TestSpanningForest(t *testing.T) {
	for name, g := range battery() {
		forest := SpanningForest(g, opts())
		comps := refalgo.Components(g, 0)
		distinct := map[uint32]bool{}
		for _, c := range comps {
			distinct[c] = true
		}
		wantEdges := int(g.NumVertices()) - len(distinct)
		if len(forest) != wantEdges {
			t.Fatalf("%s: forest has %d edges, want %d", name, len(forest), wantEdges)
		}
		// Acyclic and edges exist in G: union-find over forest edges.
		parent := make([]uint32, g.NumVertices())
		for i := range parent {
			parent[i] = uint32(i)
		}
		var find func(x uint32) uint32
		find = func(x uint32) uint32 {
			for parent[x] != x {
				parent[x] = parent[parent[x]]
				x = parent[x]
			}
			return x
		}
		for _, e := range forest {
			if !g.HasEdge(e.U, e.V) {
				t.Fatalf("%s: forest edge (%d,%d) not in graph", name, e.U, e.V)
			}
			a, b := find(e.U), find(e.V)
			if a == b {
				t.Fatalf("%s: forest has a cycle through (%d,%d)", name, e.U, e.V)
			}
			parent[a] = b
		}
	}
}

func TestSpannerStretch(t *testing.T) {
	g := gen.RMAT(9, 10, 21)
	k := int(math.Ceil(math.Log2(float64(g.NumVertices()))))
	edges := Spanner(g, opts(), k)
	// Spanner must be a subgraph.
	for _, e := range edges {
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("spanner edge (%d,%d) not in G", e.U, e.V)
		}
	}
	// Size O(n) for k = log n: allow a generous constant.
	if int64(len(edges)) > 8*int64(g.NumVertices()) {
		t.Fatalf("spanner too large: %d edges for n=%d", len(edges), g.NumVertices())
	}
	// Stretch: BFS distances in H within O(k) of G for sampled sources.
	h := graph.FromEdges(g.NumVertices(), edges, graph.BuildOpts{Symmetrize: true})
	for _, src := range []uint32{0, 5, 77} {
		dg := refalgo.BFSDistances(g, src)
		dh := refalgo.BFSDistances(h, src)
		for v := uint32(0); v < g.NumVertices(); v++ {
			if dg[v] == ^uint32(0) {
				continue
			}
			if dh[v] == ^uint32(0) {
				t.Fatalf("spanner disconnected %d from %d", v, src)
			}
			if int(dh[v]) > 8*k*int(dg[v])+8*k {
				t.Fatalf("stretch too large at %d: %d vs %d (k=%d)", v, dh[v], dg[v], k)
			}
		}
	}
}

func TestBiconnectivityMatchesTarjan(t *testing.T) {
	graphs := battery()
	// Classic articulation cases: two triangles sharing a vertex, and a
	// bridge between two cycles.
	graphs["bowtie"] = graph.FromEdges(5, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 2},
	}, graph.BuildOpts{Symmetrize: true})
	graphs["bridge"] = graph.FromEdges(6, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 3},
	}, graph.BuildOpts{Symmetrize: true})
	for name, g := range graphs {
		want := refalgo.Biconnected(g)
		res := Biconnectivity(g, opts())
		got := map[[2]uint32]uint32{}
		for v := uint32(0); v < g.NumVertices(); v++ {
			for _, u := range g.Neighbors(v) {
				if v < u {
					got[[2]uint32{v, u}] = res.EdgeLabel(v, u)
				}
			}
		}
		if !refalgo.SamePartition(want, got) {
			t.Fatalf("%s: biconnected partitions differ", name)
		}
	}
}

func TestMISValidAndMaximal(t *testing.T) {
	for name, g := range battery() {
		in := MIS(g, opts())
		for v := uint32(0); v < g.NumVertices(); v++ {
			if in[v] {
				for _, u := range g.Neighbors(v) {
					if in[u] {
						t.Fatalf("%s: adjacent MIS members %d,%d", name, v, u)
					}
				}
			} else {
				hasIn := false
				for _, u := range g.Neighbors(v) {
					if in[u] {
						hasIn = true
						break
					}
				}
				if !hasIn && g.Degree(v) >= 0 {
					t.Fatalf("%s: %d excluded but no MIS neighbor", name, v)
				}
			}
		}
	}
}

func TestMISDeterministic(t *testing.T) {
	g := gen.RMAT(9, 10, 6)
	a := MIS(g, opts())
	b := MIS(g, opts())
	for v := range a {
		if a[v] != b[v] {
			t.Fatal("MIS nondeterministic for fixed seed")
		}
	}
}

func TestMaximalMatchingValid(t *testing.T) {
	for name, g := range battery() {
		match := MaximalMatching(g, opts())
		used := make([]bool, g.NumVertices())
		for _, e := range match {
			if !g.HasEdge(e.U, e.V) {
				t.Fatalf("%s: matched edge (%d,%d) not in G", name, e.U, e.V)
			}
			if used[e.U] || used[e.V] {
				t.Fatalf("%s: vertex reused in matching", name)
			}
			used[e.U], used[e.V] = true, true
		}
		// Maximality: every edge has a matched endpoint.
		for v := uint32(0); v < g.NumVertices(); v++ {
			for _, u := range g.Neighbors(v) {
				if !used[v] && !used[u] {
					t.Fatalf("%s: edge (%d,%d) unmatched and free", name, v, u)
				}
			}
		}
	}
}

func TestColoringValid(t *testing.T) {
	for name, g := range battery() {
		colors := Coloring(g, opts())
		maxDeg := g.MaxDegree()
		for v := uint32(0); v < g.NumVertices(); v++ {
			if colors[v] > maxDeg {
				t.Fatalf("%s: color %d exceeds Δ=%d", name, colors[v], maxDeg)
			}
			for _, u := range g.Neighbors(v) {
				if colors[u] == colors[v] {
					t.Fatalf("%s: edge (%d,%d) monochromatic", name, v, u)
				}
			}
		}
	}
}

func TestKCoreMatchesSerial(t *testing.T) {
	for name, g := range battery() {
		want := refalgo.Coreness(g)
		for _, fetchAdd := range []bool{false, true} {
			o := opts()
			o.KCoreFetchAdd = fetchAdd
			got := KCore(g, o)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s (fetchAdd=%v): core[%d]=%d want %d",
						name, fetchAdd, v, got[v], want[v])
				}
			}
		}
	}
}

func TestKCoreOnCompressed(t *testing.T) {
	g := gen.RMAT(9, 10, 31)
	cg := compress.Compress(g, 64)
	want := refalgo.Coreness(g)
	got := KCore(cg, opts())
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("compressed kcore mismatch at %d", v)
		}
	}
}

func TestDensestSubgraphApproximation(t *testing.T) {
	for name, g := range battery() {
		if g.NumEdges() == 0 {
			continue
		}
		opt := refalgo.MaxDensity(g) // >= OPT/2 certificate
		o := opts()
		o.Eps = 0.05
		res := ApproxDensestSubgraph(g, o)
		// res.Density must be a real density and within 2(1+eps) of the
		// peeling certificate (which itself is within 2 of OPT).
		if res.Density < opt/(2*(1+o.Eps))-1e-9 {
			t.Fatalf("%s: density %.4f below bound (certificate %.4f)", name, res.Density, opt)
		}
		// Verify the reported subgraph really has the reported density.
		var inN, inArcs int64
		for v := uint32(0); v < g.NumVertices(); v++ {
			if !res.InSub[v] {
				continue
			}
			inN++
			for _, u := range g.Neighbors(v) {
				if res.InSub[u] {
					inArcs++
				}
			}
		}
		if inN == 0 {
			t.Fatalf("%s: empty densest subgraph", name)
		}
		gotDensity := float64(inArcs) / 2 / float64(inN)
		if math.Abs(gotDensity-res.Density) > 1e-9 {
			t.Fatalf("%s: reported density %.6f but subgraph has %.6f", name, res.Density, gotDensity)
		}
	}
}

func TestTriangleCountMatchesBruteForce(t *testing.T) {
	for name, g := range battery() {
		want := refalgo.Triangles(g)
		res := TriangleCount(g, opts())
		if res.Count != want {
			t.Fatalf("%s: count %d want %d", name, res.Count, want)
		}
	}
}

func TestTriangleCountCompressedBlockSizes(t *testing.T) {
	g := gen.RMAT(9, 12, 17)
	want := refalgo.Triangles(g)
	var prevTotal int64
	for _, bs := range []int{64, 128, 256} {
		cg := compress.Compress(g, bs)
		o := opts()
		o.FB = bs
		res := TriangleCount(cg, o)
		if res.Count != want {
			t.Fatalf("bs=%d: count %d want %d", bs, res.Count, want)
		}
		// Table 4: total (decode) work grows with the block size, while
		// intersection work is invariant.
		if prevTotal != 0 && res.TotalWork < prevTotal {
			t.Fatalf("bs=%d: total work %d decreased from %d", bs, res.TotalWork, prevTotal)
		}
		prevTotal = res.TotalWork
	}
}

func TestPageRankMatchesSerial(t *testing.T) {
	type input struct {
		g   graph.Adj
		ref *graph.Graph
	}
	inputs := map[string]input{}
	for name, g := range battery() {
		inputs[name] = input{g, g}
	}
	// The hub's degree, 9,999, exceeds prParallelDegree: its pull runs
	// aggregateParallel over two blocks, on CSR and on a byte code.
	hub := gen.Star(10_000)
	inputs["hub"] = input{hub, hub}
	inputs["hub/byte64"] = input{compress.Compress(hub, 64), hub}
	defer parallel.SetWorkers(parallel.Workers())
	for _, p := range []int{1, 2} {
		parallel.SetWorkers(p)
		for name, in := range inputs {
			want := refalgo.PageRank(in.ref, 1e-10, 100)
			got, _ := PageRank(in.g, opts(), 1e-10, 100)
			for v := range want {
				if math.Abs(got[v]-want[v]) > 1e-8 {
					t.Fatalf("%s at %d workers: pr[%d]=%v want %v", name, p, v, got[v], want[v])
				}
			}
		}
	}
}

func TestPageRankIterSumsPreserved(t *testing.T) {
	g := gen.RMAT(9, 10, 2)
	n := int(g.NumVertices())
	prev := make([]float64, n)
	next := make([]float64, n)
	for i := range prev {
		prev[i] = 1 / float64(n)
	}
	PageRankIter(g, opts(), prev, next)
	var sum float64
	for _, v := range next {
		sum += v
	}
	// Mass is preserved up to dangling-vertex leakage.
	if sum <= 0 || sum > 1.0+1e-9 {
		t.Fatalf("mass %v", sum)
	}
}

func TestApproxSetCoverValid(t *testing.T) {
	// Random instances plus the classic greedy-adversarial instance.
	instances := map[string]struct {
		sets  [][]uint32
		elems uint32
	}{
		"random": randomSetCover(40, 200, 8, 5),
		"nested": {
			sets: [][]uint32{
				{0, 1, 2, 3, 4, 5, 6, 7},
				{0, 1, 2, 3}, {4, 5, 6, 7},
				{0, 2, 4, 6}, {1, 3, 5, 7},
			},
			elems: 8,
		},
	}
	for name, inst := range instances {
		g := BipartiteFromSets(inst.sets, inst.elems)
		ns := uint32(len(inst.sets))
		cover := ApproxSetCover(g, opts(), ns)
		covered := make([]bool, inst.elems)
		for _, s := range cover {
			if s >= ns {
				t.Fatalf("%s: cover includes non-set %d", name, s)
			}
			for _, e := range inst.sets[s] {
				covered[e] = true
			}
		}
		// Every coverable element must be covered.
		coverable := make([]bool, inst.elems)
		for _, set := range inst.sets {
			for _, e := range set {
				coverable[e] = true
			}
		}
		for e := range covered {
			if coverable[e] && !covered[e] {
				t.Fatalf("%s: element %d uncovered", name, e)
			}
		}
		// Size within a generous factor of greedy.
		greedy := refalgo.GreedySetCover(g, ns)
		if len(greedy) > 0 && len(cover) > 8*len(greedy)+4 {
			t.Fatalf("%s: cover size %d vs greedy %d", name, len(cover), len(greedy))
		}
	}
}

func randomSetCover(numSets, numElems, maxSetSize int, seed uint64) struct {
	sets  [][]uint32
	elems uint32
} {
	sets := make([][]uint32, numSets)
	state := seed
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	for s := range sets {
		sz := 1 + next(maxSetSize)
		seen := map[uint32]bool{}
		for i := 0; i < sz; i++ {
			e := uint32(next(numElems))
			if !seen[e] {
				seen[e] = true
				sets[s] = append(sets[s], e)
			}
		}
	}
	return struct {
		sets  [][]uint32
		elems uint32
	}{sets, uint32(numElems)}
}

func TestSageNeverWritesNVRAM(t *testing.T) {
	// The central discipline: every Sage algorithm leaves the NVRAM write
	// counter at zero in AppDirect mode.
	g := gen.RMAT(9, 10, 3)
	wg := gen.AddUniformWeights(g, 5)
	runs := map[string]func(o *Options){
		"bfs":          func(o *Options) { BFS(g, o, 0) },
		"wbfs":         func(o *Options) { WBFS(wg, o, 0) },
		"bellman-ford": func(o *Options) { BellmanFord(wg, o, 0) },
		"widest":       func(o *Options) { WidestPath(wg, o, 0) },
		"betweenness":  func(o *Options) { Betweenness(g, o, 0) },
		"spanner":      func(o *Options) { Spanner(g, o, 0) },
		"ldd":          func(o *Options) { LDD(g, o, 0.2, 1) },
		"connectivity": func(o *Options) { Connectivity(g, o) },
		"forest":       func(o *Options) { SpanningForest(g, o) },
		"biconn":       func(o *Options) { Biconnectivity(g, o) },
		"mis":          func(o *Options) { MIS(g, o) },
		"matching":     func(o *Options) { MaximalMatching(g, o) },
		"coloring":     func(o *Options) { Coloring(g, o) },
		"kcore":        func(o *Options) { KCore(g, o) },
		"densest":      func(o *Options) { ApproxDensestSubgraph(g, o) },
		"triangles":    func(o *Options) { TriangleCount(g, o) },
		"pagerank":     func(o *Options) { PageRank(g, o, 1e-6, 10) },
	}
	for name, run := range runs {
		o := optsEnv()
		run(o)
		tot := o.Env.Totals()
		if tot.NVRAMWrites != 0 {
			t.Fatalf("%s wrote %d words to NVRAM", name, tot.NVRAMWrites)
		}
		if tot.NVRAMReads == 0 {
			t.Fatalf("%s charged no NVRAM reads", name)
		}
	}
}
