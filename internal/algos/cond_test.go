package algos

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"sage/internal/gen"
	"sage/internal/graph"
	"sage/internal/parallel"
	"sage/internal/refalgo"
	"sage/internal/traverse"
)

// condFamilies are the six degree-skew generator families; four of them
// have n % 64 ≠ 0, so the last word of every Cond bitmap has bits past n.
func condFamilies() []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"star", gen.Star(400)},                      // 400 % 64 = 16
		{"bipartite", gen.CompleteBipartite(24, 40)}, // 64
		{"grid", gen.Grid2D(18, 18, true)},           // 324 % 64 = 4
		{"powerlaw", gen.PowerLaw(700, 6, 3)},        // 700 % 64 = 60
		{"dense-er", gen.ErdosRenyi(220, 9000, 5)},   // 220 % 64 = 28
		{"rmat", gen.RMAT(9, 8, 7)},                  // 512
	}
}

// condDirections run every traversal the Cond bitmap gates: the
// direction-optimizing default, pull only and push only.
var condDirections = []struct {
	name string
	set  func(*traverse.Options)
}{
	{"auto", func(*traverse.Options) {}},
	{"dense", func(t *traverse.Options) { t.ForceDense = true }},
	{"sparse", func(t *traverse.Options) { t.ForceSparse = true }},
}

// TestCondBitmapAlgorithmsMatchReference checks every algorithm whose
// edgeMap condition or working vertex set is a bitmap against the serial
// references at 1, 2 and 4 workers, in every direction: the traversals,
// wBFS and bucketed widest path (whose condition is their settle bitmap),
// k-core and densest subgraph (whose peeling edgeMap takes their live
// bitmap as its condition) and set cover (whose covered elements are a
// bitmap its winners Set).
func TestCondBitmapAlgorithmsMatchReference(t *testing.T) {
	old := parallel.Workers()
	defer parallel.SetWorkers(old)
	densest := map[string]*DensestResult{} // per family: the first run's
	for _, p := range []int{1, 2, 4} {
		parallel.SetWorkers(p)
		for i, fam := range condFamilies() {
			g := fam.g
			wbfs := wbfsCases(g, rand.New(rand.NewPCG(uint64(i), 9)).Uint32N(g.NumVertices()))
			dist := refalgo.BFSDistances(g, 0)
			comps := refalgo.Components(g, 0)
			bc := refalgo.Betweenness(g, 0)
			coreness := refalgo.Coreness(g)
			maxDensity := refalgo.MaxDensity(g)
			sets := make([][]uint32, g.NumVertices()) // each vertex covers its neighbours
			for v := range sets {
				sets[v] = g.Neighbors(uint32(v))
			}
			cover := BipartiteFromSets(sets, g.NumVertices())
			greedy := len(refalgo.GreedySetCover(cover, g.NumVertices()))
			for _, dir := range condDirections {
				o := Defaults()
				dir.set(&o.Traverse)
				name := fmt.Sprintf("p%d/%s/%s", p, fam.name, dir.name)
				checkBFSParents(t, name+"/bfs", g, dist, BFS(g, o, 0))
				parents, levels, _ := BFSTree(g, o, []uint32{0})
				checkBFSParents(t, name+"/bfstree", g, dist, parents)
				for v, l := range levels {
					if l != dist[v] {
						t.Fatalf("%s/bfstree: level[%d]=%d, distance %d", name, v, l, dist[v])
					}
				}
				for _, c := range wbfs {
					got := WBFS(c.g, o, c.src)
					for v, d := range c.want {
						if got[v] != d {
							t.Fatalf("%s/wbfs/%s: dist[%d]=%d, reference %d", name, c.name, v, got[v], d)
						}
					}
					widths := WidestPathBucketed(c.g, o, c.src)
					for v, w := range c.widest {
						if widths[v] != w {
							t.Fatalf("%s/widest/%s: width[%d]=%d, reference %d", name, c.name, v, widths[v], w)
						}
					}
				}
				checkLDD(t, name+"/ldd", g, comps, LDD(g, o, 0.2, 42))
				if got := Connectivity(g, o); !refalgo.SameComponents(comps, got) {
					t.Fatalf("%s/connectivity: components differ from union-find", name)
				}
				got := Betweenness(g, o, 0)
				for v := range bc {
					if math.Abs(got[v]-bc[v]) > 1e-6*(1+math.Abs(bc[v])) {
						t.Fatalf("%s/bc: delta[%d]=%v want %v", name, v, got[v], bc[v])
					}
				}
				for _, fetchAdd := range []bool{false, true} {
					o.KCoreFetchAdd = fetchAdd
					if got := KCore(g, o); !slices.Equal(got, coreness) {
						t.Fatalf("%s/kcore(fetchadd=%v): coreness differs from the serial peeling", name, fetchAdd)
					}
				}
				o.KCoreFetchAdd = false
				checkDensest(t, name+"/densest", g, maxDensity, o.Eps, densest, fam.name, ApproxDensestSubgraph(g, o))
				checkCover(t, name+"/setcover", sets, greedy, ApproxSetCover(cover, o, g.NumVertices()))
			}
		}
	}
}

// wbfsCase is one wBFS and bucketed widest-path run, with its reference
// distances (Infinity where unreachable) and widths (NegInf where
// unreachable, InfDist at the source).
type wbfsCase struct {
	name   string
	g      *graph.Graph
	src    uint32
	want   []uint32
	widest []int64
}

// wbfsCases weights g uniformly (checked against Dijkstra) and with all
// weights 1 (every bucket a BFS level, checked against BFS distances),
// each from vertex 0 and from src.
func wbfsCases(g *graph.Graph, src uint32) []wbfsCase {
	uniform := gen.AddUniformWeights(g, 11)
	unit := withUnitWeights(g)
	var cases []wbfsCase
	for _, s := range []uint32{0, src} {
		dijkstra := refalgo.Dijkstra(uniform, s)
		want := make([]uint32, len(dijkstra))
		for v, d := range dijkstra {
			want[v] = Infinity
			if d != math.MaxInt64 {
				want[v] = uint32(d)
			}
		}
		cases = append(cases,
			wbfsCase{fmt.Sprintf("uniform/src%d", s), uniform, s, want, refWidths(uniform, s)},
			wbfsCase{fmt.Sprintf("unit/src%d", s), unit, s, refalgo.BFSDistances(g, s), refWidths(unit, s)})
	}
	return cases
}

// refWidths is refalgo.WidestPath in WidestPathBucketed's markers.
func refWidths(g *graph.Graph, src uint32) []int64 {
	widths := refalgo.WidestPath(g, src)
	for v, w := range widths {
		switch w {
		case math.MinInt64:
			widths[v] = NegInf
		case math.MaxInt64:
			widths[v] = InfDist
		}
	}
	return widths
}

// withUnitWeights returns a weighted copy of g with every weight 1.
func withUnitWeights(g *graph.Graph) *graph.Graph {
	var edges []graph.WEdge
	for u := uint32(0); u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(u) {
			edges = append(edges, graph.WEdge{U: u, V: v, W: 1})
		}
	}
	return graph.FromWeightedEdges(g.NumVertices(), edges, graph.BuildOpts{})
}

// checkDensest asserts that res's members have the density it reports,
// that it meets the 2(1+ε) bound against the sequential peeling
// certificate, and that it is identical to the first result recorded for
// its family.
func checkDensest(t *testing.T, name string, g *graph.Graph, certificate, eps float64, first map[string]*DensestResult, family string, res *DensestResult) {
	t.Helper()
	var members, arcs int
	for v := uint32(0); v < g.NumVertices(); v++ {
		if !res.InSub[v] {
			continue
		}
		members++
		for _, u := range g.Neighbors(v) {
			if res.InSub[u] {
				arcs++
			}
		}
	}
	if members == 0 || math.Abs(float64(arcs)/2/float64(members)-res.Density) > 1e-9 {
		t.Fatalf("%s: reported density %v, but its %d members span %d arcs", name, res.Density, members, arcs)
	}
	if res.Density < certificate/(2*(1+eps))-1e-9 {
		t.Fatalf("%s: density %.4f below the bound (certificate %.4f)", name, res.Density, certificate)
	}
	want, ok := first[family]
	if !ok {
		first[family] = res
		return
	}
	if res.Density != want.Density || res.Rounds != want.Rounds || !slices.Equal(res.InSub, want.InSub) {
		t.Fatalf("%s: density %v in %d rounds, first run %v in %d rounds (same members: %v)",
			name, res.Density, res.Rounds, want.Density, want.Rounds, slices.Equal(res.InSub, want.InSub))
	}
}

// checkCover asserts that cover names only sets, covers every element
// some set contains, and is within a generous factor of the greedy cover.
func checkCover(t *testing.T, name string, sets [][]uint32, greedy int, cover []uint32) {
	t.Helper()
	if len(cover) > 8*greedy+4 {
		t.Fatalf("%s: %d sets, greedy needs %d", name, len(cover), greedy)
	}
	covered := make(map[uint32]bool)
	for _, s := range cover {
		if int(s) >= len(sets) {
			t.Fatalf("%s: cover names %d, not a set", name, s)
		}
		for _, e := range sets[s] {
			covered[e] = true
		}
	}
	for s, elems := range sets {
		for _, e := range elems {
			if !covered[e] {
				t.Fatalf("%s: element %d (in set %d) is uncovered", name, e, s)
			}
		}
	}
}

// checkBFSParents asserts that parents is a BFS tree from vertex 0 under
// the reference distances.
func checkBFSParents(t *testing.T, name string, g *graph.Graph, dist, parents []uint32) {
	t.Helper()
	for v := uint32(0); v < g.NumVertices(); v++ {
		p := parents[v]
		if (p == Infinity) != (dist[v] == Infinity) {
			t.Fatalf("%s: vertex %d parent %d, distance %d", name, v, p, dist[v])
		}
		if p == Infinity || v == 0 {
			continue
		}
		if dist[p]+1 != dist[v] || !g.HasEdge(p, v) {
			t.Fatalf("%s: parent of %d (distance %d) is %d (distance %d)", name, v, dist[v], p, dist[p])
		}
	}
}

// checkLDD asserts that res partitions the vertices into clusters, each a
// tree of graph edges around its centre inside one reference component.
func checkLDD(t *testing.T, name string, g *graph.Graph, comps []uint32, res *LDDResult) {
	t.Helper()
	for v := uint32(0); v < g.NumVertices(); v++ {
		c, p := res.Cluster[v], res.Parent[v]
		if c == Infinity || p == Infinity {
			t.Fatalf("%s: vertex %d unclaimed (cluster %d, parent %d)", name, v, c, p)
		}
		if res.Cluster[c] != c || res.Parent[c] != c {
			t.Fatalf("%s: centre %d of %d is not its own cluster's root", name, c, v)
		}
		if comps[c] != comps[v] {
			t.Fatalf("%s: vertex %d clustered with %d across components", name, v, c)
		}
		if v != c && (res.Cluster[p] != c || !g.HasEdge(p, v)) {
			t.Fatalf("%s: parent %d of %d is not a neighbour in cluster %d", name, p, v, c)
		}
	}
}

// TestCondBitmapBellmanFordNegativeCycle puts one negative undirected edge
// — a negative 2-cycle — at the vertex farthest from the source on each
// family, so markNegInf floods its condition bitmap back across the whole
// component, and compares with the serial reference.
func TestCondBitmapBellmanFordNegativeCycle(t *testing.T) {
	old := parallel.Workers()
	defer parallel.SetWorkers(old)
	for _, fam := range condFamilies() {
		wg := withNegativeEdge(fam.g)
		want := refalgo.BellmanFord(wg, 0)
		if !slices.Contains(want, math.MinInt64) {
			t.Fatalf("%s: the negative edge is not reachable from 0", fam.name)
		}
		for _, p := range []int{1, 2, 4} {
			parallel.SetWorkers(p)
			got := BellmanFord(wg, opts(), 0)
			for v := range want {
				var ok bool
				switch want[v] {
				case math.MinInt64:
					ok = got[v] == NegInf
				case math.MaxInt64:
					ok = got[v] == InfDist
				default:
					ok = got[v] == want[v]
				}
				if !ok {
					t.Fatalf("p%d/%s: dist[%d]=%d, reference %d", p, fam.name, v, got[v], want[v])
				}
			}
		}
	}
}

// withNegativeEdge weights g's edges 1..9 and gives the first edge of the
// vertex farthest from vertex 0 the weight -2.
func withNegativeEdge(g *graph.Graph) *graph.Graph {
	dist := refalgo.BFSDistances(g, 0)
	far := uint32(0)
	for v, d := range dist {
		if d != Infinity && d > dist[far] && g.Degree(uint32(v)) > 0 {
			far = uint32(v)
		}
	}
	neg := [2]uint32{far, g.Neighbors(far)[0]}
	var edges []graph.WEdge
	for u := uint32(0); u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(u) {
			if u > v {
				continue
			}
			w := int32((u*31+v*17)%9) + 1
			if (u == neg[0] && v == neg[1]) || (u == neg[1] && v == neg[0]) {
				w = -2
			}
			edges = append(edges, graph.WEdge{U: u, V: v, W: w})
		}
	}
	return graph.FromWeightedEdges(g.NumVertices(), edges, graph.BuildOpts{Symmetrize: true})
}
