package graph

import (
	"math/bits"

	"sage/internal/parallel"
)

// Relabel returns a copy of g with vertex v renamed to perm[v]; perm must
// be a permutation of [0, n). Adjacency lists are rebuilt sorted.
func (g *Graph) Relabel(perm []uint32) *Graph {
	n := g.n
	edges := make([]Edge, g.m)
	var weights []int32
	if g.weights != nil {
		weights = make([]int32, g.m)
	}
	parallel.For(int(n), 16, func(i int) {
		v := uint32(i)
		base := g.offsets[v]
		for k, u := range g.Neighbors(v) {
			edges[base+uint64(k)] = Edge{U: perm[v], V: perm[u]}
			if weights != nil {
				weights[base+uint64(k)] = g.weights[base+uint64(k)]
			}
		}
	})
	if weights == nil {
		return FromEdges(n, edges, BuildOpts{})
	}
	wedges := make([]WEdge, g.m)
	parallel.For(int(g.m), 0, func(i int) {
		wedges[i] = WEdge{U: edges[i].U, V: edges[i].V, W: weights[i]}
	})
	return FromWeightedEdges(n, wedges, BuildOpts{})
}

// DegreeOrder returns the permutation renaming vertices in decreasing
// degree order (hubs first). Appendix D.1 attributes triangle-counting
// performance differences to the input ordering; renumbering by degree
// concentrates the high-degree vertices' filter blocks, changing the
// decode-work profile.
func (g *Graph) DegreeOrder() []uint32 {
	n := int(g.n)
	byDeg := parallel.Tabulate(n, func(i int) uint32 { return uint32(i) })
	maxDeg := parallel.ReduceMax(n, 0, 0, func(i int) uint32 { return g.Degree(uint32(i)) })
	// Stable on ascending ids, so equal degrees stay in id order.
	parallel.SortByKey(byDeg, bits.Len32(maxDeg), func(v uint32) uint64 {
		return uint64(maxDeg - g.Degree(v))
	})
	perm := make([]uint32, n)
	parallel.For(n, 0, func(rank int) { perm[byDeg[rank]] = uint32(rank) })
	return perm
}

// RandomOrder returns a pseudo-random permutation (hash-ranked),
// deterministic in the seed — the adversarial ordering for cache and
// compression locality.
func (g *Graph) RandomOrder(seed uint64) []uint32 {
	n := int(g.n)
	byHash := parallel.Tabulate(n, func(i int) uint32 { return uint32(i) })
	parallel.SortByKey(byHash, 64, func(v uint32) uint64 { return mixRelabel(uint64(v), seed) })
	perm := make([]uint32, n)
	parallel.For(n, 0, func(rank int) { perm[byHash[rank]] = uint32(rank) })
	return perm
}

func mixRelabel(x, seed uint64) uint64 {
	x ^= seed + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
