package graph

import (
	"slices"
	"testing"
)

// buildFlatTestGraph returns a small CSR graph, weighted or not.
func buildFlatTestGraph(weighted bool) *Graph {
	edges := []WEdge{
		{0, 1, 3}, {0, 2, 5}, {1, 2, 7}, {2, 3, 1}, {3, 4, 9}, {0, 4, 2},
	}
	if weighted {
		return FromWeightedEdges(5, edges, BuildOpts{Symmetrize: true})
	}
	plain := make([]Edge, len(edges))
	for i, e := range edges {
		plain[i] = Edge{U: e.U, V: e.V}
	}
	return FromEdges(5, plain, BuildOpts{Symmetrize: true})
}

// TestFlatSliceAndFull checks the CSR access path for every subrange of
// every vertex: Slice and Full must alias the graph's own arrays (zero
// copy, scratch untouched) and equal the matching sub-slices of
// Neighbors/NeighborWeights.
func TestFlatSliceAndFull(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := buildFlatTestGraph(weighted)
		f := NewFlat(g)
		var s Scratch
		for v := uint32(0); v < g.NumVertices(); v++ {
			deg := g.Degree(v)
			wantN, wantW := g.Neighbors(v), g.NeighborWeights(v)
			for lo := uint32(0); lo <= deg; lo++ {
				for hi := lo; hi <= deg; hi++ {
					nghs, ws := f.Slice(v, lo, hi, &s)
					if !slices.Equal(nghs, wantN[lo:hi]) || (weighted && !slices.Equal(ws, wantW[lo:hi])) {
						t.Fatalf("Slice v=%d [%d,%d) = %v %v", v, lo, hi, nghs, ws)
					}
					if !weighted && ws != nil {
						t.Fatal("unexpected weights on unweighted graph")
					}
					if hi > lo && &nghs[0] != &wantN[lo] {
						t.Fatalf("Slice v=%d [%d,%d) does not alias the edge array", v, lo, hi)
					}
				}
			}
			nghs, ws := f.Full(v, &s)
			if !slices.Equal(nghs, wantN) || !slices.Equal(ws, wantW) {
				t.Fatalf("Full v=%d = %v %v", v, nghs, ws)
			}
		}
		if s.Nghs != nil || s.Ws != nil {
			t.Fatal("CSR access wrote to the scratch")
		}
	}
}
