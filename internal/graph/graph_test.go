package graph

import (
	"testing"
	"testing/quick"
)

func triangleGraph() *Graph {
	return FromEdges(3, []Edge{{0, 1}, {1, 2}, {0, 2}}, BuildOpts{Symmetrize: true})
}

func TestFromEdgesBasic(t *testing.T) {
	g := triangleGraph()
	if g.NumVertices() != 3 || g.NumEdges() != 6 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(true); err != nil {
		t.Fatal(err)
	}
	for v := uint32(0); v < 3; v++ {
		if g.Degree(v) != 2 {
			t.Fatalf("deg(%d)=%d", v, g.Degree(v))
		}
	}
}

func TestFromEdgesDedupAndSelfLoops(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}, {0, 1}, {1, 0}, {2, 2}, {1, 3}}, BuildOpts{Symmetrize: true})
	if err := g.Validate(true); err != nil {
		t.Fatal(err)
	}
	// Edges: {0,1} and {1,3}; symmetric arcs = 4.
	if g.NumEdges() != 4 {
		t.Fatalf("m=%d want 4", g.NumEdges())
	}
	if g.Degree(2) != 0 {
		t.Fatal("self loop survived")
	}
}

func TestFromEdgesProperty(t *testing.T) {
	f := func(raw []uint16, nSeed uint8) bool {
		n := uint32(nSeed)%64 + 2
		var edges []Edge
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{U: uint32(raw[i]) % n, V: uint32(raw[i+1]) % n})
		}
		g := FromEdges(n, edges, BuildOpts{Symmetrize: true})
		return g.Validate(true) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedBuild(t *testing.T) {
	g := FromWeightedEdges(3, []WEdge{{0, 1, 5}, {1, 2, 7}}, BuildOpts{Symmetrize: true})
	if !g.Weighted() {
		t.Fatal("not weighted")
	}
	w, ok := g.EdgeWeight(0, 1)
	if !ok || w != 5 {
		t.Fatalf("w(0,1)=%d ok=%v", w, ok)
	}
	w, ok = g.EdgeWeight(2, 1)
	if !ok || w != 7 {
		t.Fatalf("w(2,1)=%d ok=%v", w, ok)
	}
	if _, ok = g.EdgeWeight(0, 2); ok {
		t.Fatal("phantom edge")
	}
}

// TestWeightedDuplicatesKeepMinimum feeds every arc's copies in
// descending-weight order, small (comparison-sorted) and large (radix
// sorted): a stable (U, V) sort leaves the heaviest copy first, so the
// minimum must come from folding each run, not from the sort order.
func TestWeightedDuplicatesKeepMinimum(t *testing.T) {
	for _, n := range []uint32{4, 600} {
		var edges []WEdge
		for w := int32(9); w >= 3; w -= 3 { // copies at 9, 6, 3
			for u := uint32(0); u < n; u++ {
				edges = append(edges, WEdge{U: u, V: (u + 1) % n, W: w + int32(u%2)})
			}
		}
		for _, opts := range []BuildOpts{{}, {Symmetrize: true}} {
			g := FromWeightedEdges(n, edges, opts)
			if want := uint64(n) * uint64(boostFactor(opts)); g.NumEdges() != want {
				t.Fatalf("n=%d %+v: %d arcs after dedup, want %d", n, opts, g.NumEdges(), want)
			}
			for u := uint32(0); u < n; u++ {
				if w, ok := g.EdgeWeight(u, (u+1)%n); !ok || w != 3+int32(u%2) {
					t.Fatalf("n=%d %+v: w(%d,%d)=%d ok=%v, want the minimum %d", n, opts, u, (u+1)%n, w, ok, 3+u%2)
				}
			}
		}
		kept := FromWeightedEdges(n, edges, BuildOpts{KeepDuplicates: true})
		if kept.NumEdges() != uint64(len(edges)) {
			t.Fatalf("n=%d: KeepDuplicates kept %d of %d arcs", n, kept.NumEdges(), len(edges))
		}
	}
}

func TestScanCostAndAddr(t *testing.T) {
	g := triangleGraph()
	if g.ScanCost(0, 0, 2) != 2 {
		t.Fatalf("cost %d", g.ScanCost(0, 0, 2))
	}
	// Offsets occupy [0, n+1): first edge address is n+1.
	if g.EdgeAddr(0) != int64(g.NumVertices())+1 {
		t.Fatalf("addr %d", g.EdgeAddr(0))
	}
}

func TestHasEdge(t *testing.T) {
	g := triangleGraph()
	if !g.HasEdge(0, 2) || g.HasEdge(0, 0) {
		t.Fatal("HasEdge wrong")
	}
}

func TestAvgMaxDegree(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 1}, {0, 2}, {0, 3}, {0, 4}}, BuildOpts{Symmetrize: true})
	if g.MaxDegree() != 4 {
		t.Fatalf("max %d", g.MaxDegree())
	}
	if AvgDegree(g) != 1 {
		t.Fatalf("avg %d", AvgDegree(g))
	}
}
