// Package graph provides the immutable compressed-sparse-row (CSR) graph
// representation that Sage stores in NVRAM (§2, §4.2.1), a parallel
// builder from edge lists, and the adjacency-access interface shared by
// the uncompressed and byte-compressed representations.
//
// Vertices are indexed 0..n-1 as uint32; graphs are undirected and stored
// symmetrized (each undirected edge appears in both adjacency lists), with
// sorted adjacency lists, no self-edges, and no duplicate edges — the
// paper's preliminaries (§2).
package graph

import (
	"fmt"

	"sage/internal/parallel"
)

// Edge is one directed arc of an edge list.
type Edge struct{ U, V uint32 }

// WEdge is a weighted arc.
type WEdge struct {
	U, V uint32
	W    int32
}

// Graph is an immutable unweighted or integer-weighted CSR graph. In the
// PSAM it models the read-only structure residing in the asymmetric
// large-memory: the offsets and edges arrays are assigned simulated NVRAM
// word addresses (offsets at [0, n+1), edges from n+1, each weight next to
// its neighbour when present) used by the Memory-Mode cache simulator.
type Graph struct {
	n uint32
	m uint64
	//sage:arena
	offsets []uint64 // len n+1, offsets[v]..offsets[v+1] index edges
	//sage:arena
	edges []uint32 // len m, sorted within each vertex
	//sage:arena
	weights []int32 // len m or nil
}

// NumVertices returns n.
func (g *Graph) NumVertices() uint32 { return g.n }

// NumEdges returns m, the number of directed arcs stored (twice the number
// of undirected edges for symmetric graphs).
func (g *Graph) NumEdges() uint64 { return g.m }

// Weighted reports whether the graph carries edge weights.
func (g *Graph) Weighted() bool { return g.weights != nil }

// Degree returns deg(v).
//
//sage:hotpath
func (g *Graph) Degree(v uint32) uint32 {
	return uint32(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted adjacency slice of v. The slice aliases the
// graph and must be treated as read-only.
//
//sage:arena-view
//sage:hotpath
func (g *Graph) Neighbors(v uint32) []uint32 {
	return g.edges[g.offsets[v]:g.offsets[v+1]]
}

// NeighborWeights returns the weights aligned with Neighbors(v), or nil
// for unweighted graphs.
//
//sage:arena-view
//sage:hotpath
func (g *Graph) NeighborWeights(v uint32) []int32 {
	if g.weights == nil {
		return nil
	}
	return g.weights[g.offsets[v]:g.offsets[v+1]]
}

// Offsets exposes the offsets array (read-only).
//
//sage:arena-view
func (g *Graph) Offsets() []uint64 { return g.offsets }

// Edges exposes the flat edge array (read-only).
//
//sage:arena-view
func (g *Graph) Edges() []uint32 { return g.edges }

// EdgeAddr returns the simulated NVRAM word address of v's adjacency.
// The offsets region occupies addresses [0, n+1) and the edge region
// starts at n+1. Weights are addressed as stored next to their
// neighbours, as GBBS and the byte-compressed format lay them out, so a
// weighted list of d edges spans 2d words.
//
//sage:hotpath
func (g *Graph) EdgeAddr(v uint32) int64 {
	if g.weights != nil {
		return int64(g.n) + 1 + 2*int64(g.offsets[v])
	}
	return int64(g.n) + 1 + int64(g.offsets[v])
}

// ScanCost returns the number of NVRAM words read when scanning adjacency
// positions [lo, hi) of vertex v: one word per edge for CSR (plus weights
// when present).
//
//sage:hotpath
func (g *Graph) ScanCost(v uint32, lo, hi uint32) int64 {
	c := int64(hi - lo)
	if g.weights != nil {
		c *= 2
	}
	return c
}

// BlockSize reports the natural decode granularity; CSR graphs support
// arbitrary granularity, reported as 0.
func (g *Graph) BlockSize() int { return 0 }

// MaxDegree returns the maximum vertex degree.
func (g *Graph) MaxDegree() uint32 {
	return parallel.ReduceMax(int(g.n), 0, uint32(0), func(i int) uint32 {
		return g.Degree(uint32(i))
	})
}

// SizeWords returns the simulated NVRAM footprint in words.
func (g *Graph) SizeWords() int64 {
	w := int64(g.n) + 1 + int64(g.m)
	if g.weights != nil {
		w += int64(g.m)
	}
	return w
}

// Validate checks the CSR invariants (sorted adjacency, no self loops, no
// duplicates, offsets monotone, symmetric if sym is true). It is used by
// the test suite.
func (g *Graph) Validate(sym bool) error {
	if len(g.offsets) != int(g.n)+1 {
		return fmt.Errorf("offsets length %d != n+1 (%d)", len(g.offsets), g.n+1)
	}
	if g.offsets[g.n] != g.m || uint64(len(g.edges)) != g.m {
		return fmt.Errorf("edge count mismatch: offsets end %d, m %d, len(edges) %d",
			g.offsets[g.n], g.m, len(g.edges))
	}
	for v := uint32(0); v < g.n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return fmt.Errorf("offsets not monotone at %d", v)
		}
		nghs := g.Neighbors(v)
		for i, u := range nghs {
			if u >= g.n {
				return fmt.Errorf("edge target %d out of range at vertex %d", u, v)
			}
			if u == v {
				return fmt.Errorf("self loop at %d", v)
			}
			if i > 0 && nghs[i-1] >= u {
				return fmt.Errorf("adjacency of %d not strictly sorted", v)
			}
		}
	}
	if sym {
		for v := uint32(0); v < g.n; v++ {
			for _, u := range g.Neighbors(v) {
				if !g.HasEdge(u, v) {
					return fmt.Errorf("asymmetric edge (%d,%d)", v, u)
				}
			}
		}
	}
	return nil
}

// HasEdge reports whether (u, v) is present, by binary search.
func (g *Graph) HasEdge(u, v uint32) bool {
	nghs := g.Neighbors(u)
	lo, hi := 0, len(nghs)
	for lo < hi {
		mid := (lo + hi) / 2
		if nghs[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(nghs) && nghs[lo] == v
}

// EdgeWeight returns the weight of edge (u, v), or (0, false) if absent.
func (g *Graph) EdgeWeight(u, v uint32) (int32, bool) {
	nghs := g.Neighbors(u)
	lo, hi := 0, len(nghs)
	for lo < hi {
		mid := (lo + hi) / 2
		if nghs[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(nghs) || nghs[lo] != v {
		return 0, false
	}
	if g.weights == nil {
		return 1, true
	}
	return g.weights[g.offsets[u]+uint64(lo)], true
}
