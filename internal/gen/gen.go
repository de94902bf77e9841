// Package gen provides deterministic synthetic graph generators standing
// in for the paper's datasets (Table 2). Real inputs (Hyperlink2012,
// ClueWeb, Twitter, …) are hundreds of gigabytes and unavailable here;
// the generators reproduce the structural properties the evaluation
// depends on — skewed (power-law) degree distributions for the social/web
// graphs, low diameter, average degrees in the 10–80 range (Figure 2) —
// at laptop scale. All generators are deterministic in their seed.
//
// RMAT draws its edges in blocks of 2¹⁴, each from its own PCG stream
// keyed by the block's first index, so the graph does not depend on the
// worker count; its floats are bit-identical to rand.Rand.Float64's.
// AddUniformWeights hashes each arc's weight from its endpoints over the
// sorted CSR it copies, so weighting is one parallel pass, not a rebuild.
package gen

import (
	"math"
	"math/rand/v2"

	"sage/internal/graph"
	"sage/internal/parallel"
)

// pcg returns a deterministic PCG stream for (seed, stream).
func pcg(seed, stream uint64) *rand.PCG {
	return rand.NewPCG(seed, stream*0x9e3779b97f4a7c15+0x2545f4914f6cdd1d)
}

// rng wraps pcg(seed, stream) for generators drawing bounded integers.
func rng(seed, stream uint64) *rand.Rand { return rand.New(pcg(seed, stream)) }

// RMAT generates a symmetrized R-MAT graph with 2^logN vertices and
// approximately avgDeg·2^logN arcs. rmatEdge starts from the Graph500
// parameters (a, b, c, d) = (0.57, 0.19, 0.19, 0.05), but its thresholds
// a+b and a+c coincide (b = c), so each level draws quadrant (0,0) with
// probability 0.57, (0,1) 0.19, (1,1) 0.24 and (1,0) never: u's bit is
// 1 with Graph500's 0.24, v's with 0.43. The per-level noise scales the
// draw and every threshold alike, so it cancels up to rounding. The
// degrees are still skewed, as the paper's social and web graphs are,
// but less than Graph500's.
func RMAT(logN int, avgDeg int, seed uint64) *graph.Graph {
	n := uint32(1) << logN
	mDirected := int(uint64(n) * uint64(avgDeg) / 2)
	edges := make([]graph.Edge, mDirected)
	parallel.ForBlocks(mDirected, 1<<14, func(_, lo, hi int) {
		// The stream kept concrete: a draw is a direct call, not one
		// through the rand.Source interface.
		r := pcg(seed, uint64(lo))
		for i := lo; i < hi; i++ {
			edges[i] = rmatEdge(r, logN)
		}
	})
	return graph.FromEdges(n, edges, graph.BuildOpts{Symmetrize: true})
}

// float64Of maps a 64-bit draw to [0, 1) exactly as rand.Rand.Float64
// does, so RMAT's graphs do not depend on which of the two draws it. The
// 53-bit value converts exactly from int64 too, in one instruction where
// uint64 takes a sign test.
func float64Of(x uint64) float64 { return float64(int64(x<<11>>11)) / (1 << 53) }

func rmatEdge(r *rand.PCG, logN int) graph.Edge {
	const a, b, c = 0.57, 0.19, 0.19
	var u, v uint32
	for bit := 0; bit < logN; bit++ {
		// The ±10% noise scales p and the thresholds alike: it cancels.
		noise := 0.9 + 0.2*float64Of(r.Uint64())
		ab := (a + b) * noise
		aa := a * noise
		cc := aa + c*noise
		p := float64Of(r.Uint64()) * (noise)
		// Quadrants (0,0), (0,1), (1,1) split p at aa and ab; cc equals
		// ab, so (1,0) is never drawn. The bits are those comparisons,
		// combined with & and | rather than && and ||, which would branch.
		u = u<<1 | b2u(p >= ab)
		v = v<<1 | b2u(p >= aa)&b2u(p < ab) | b2u(p >= cc)
	}
	return graph.Edge{U: u, V: v}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// ErdosRenyi generates a symmetrized G(n, m) graph with m target arcs
// before deduplication.
func ErdosRenyi(n uint32, m int, seed uint64) *graph.Graph {
	edges := make([]graph.Edge, m)
	parallel.ForBlocks(m, 1<<14, func(_, lo, hi int) {
		r := rng(seed, uint64(lo))
		for i := lo; i < hi; i++ {
			edges[i] = graph.Edge{U: r.Uint32N(n), V: r.Uint32N(n)}
		}
	})
	return graph.FromEdges(n, edges, graph.BuildOpts{Symmetrize: true})
}

// PowerLaw generates a preferential-attachment ("copying model") graph:
// vertex v attaches d edges, each to a uniform earlier vertex with
// probability q or to the endpoint of a uniform earlier edge otherwise
// (which samples proportionally to degree). The result has a power-law
// tail like the paper's social networks.
func PowerLaw(n uint32, d int, seed uint64) *graph.Graph {
	if n < 2 {
		n = 2
	}
	r := rng(seed, 0)
	targets := make([]uint32, 0, int(n)*d)
	edges := make([]graph.Edge, 0, int(n)*d)
	const q = 0.25
	for v := uint32(1); v < n; v++ {
		for j := 0; j < d; j++ {
			var t uint32
			if len(targets) == 0 || r.Float64() < q {
				t = r.Uint32N(v)
			} else {
				t = targets[r.IntN(len(targets))]
			}
			edges = append(edges, graph.Edge{U: v, V: t})
			targets = append(targets, t, v)
		}
	}
	return graph.FromEdges(n, edges, graph.BuildOpts{Symmetrize: true})
}

// Grid2D generates a rows×cols lattice (4-neighborhood); if torus is true
// the boundary wraps. Grids model the high-diameter road-network-like
// inputs used to stress frontier-based algorithms.
func Grid2D(rows, cols uint32, torus bool) *graph.Graph {
	n := rows * cols
	edges := make([]graph.Edge, 0, 2*int(n))
	id := func(r, c uint32) uint32 { return r*cols + c }
	for r := uint32(0); r < rows; r++ {
		for c := uint32(0); c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r, c+1)})
			} else if torus && cols > 2 {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r, 0)})
			}
			if r+1 < rows {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r+1, c)})
			} else if torus && rows > 2 {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(0, c)})
			}
		}
	}
	return graph.FromEdges(n, edges, graph.BuildOpts{Symmetrize: true})
}

// Star generates a star with center 0 and n-1 leaves: the extreme skew
// case for load balancing.
func Star(n uint32) *graph.Graph {
	edges := make([]graph.Edge, 0, int(n)-1)
	for v := uint32(1); v < n; v++ {
		edges = append(edges, graph.Edge{U: 0, V: v})
	}
	return graph.FromEdges(n, edges, graph.BuildOpts{Symmetrize: true})
}

// Chain generates a path on n vertices: the extreme diameter case.
func Chain(n uint32) *graph.Graph {
	edges := make([]graph.Edge, 0, int(n)-1)
	for v := uint32(0); v+1 < n; v++ {
		edges = append(edges, graph.Edge{U: v, V: v + 1})
	}
	return graph.FromEdges(n, edges, graph.BuildOpts{Symmetrize: true})
}

// Cycle generates a cycle on n vertices.
func Cycle(n uint32) *graph.Graph {
	edges := make([]graph.Edge, 0, int(n))
	for v := uint32(0); v < n; v++ {
		edges = append(edges, graph.Edge{U: v, V: (v + 1) % n})
	}
	return graph.FromEdges(n, edges, graph.BuildOpts{Symmetrize: true})
}

// CompleteBipartite generates K_{a,b} (set-cover-style bipartite
// structure).
func CompleteBipartite(a, b uint32) *graph.Graph {
	edges := make([]graph.Edge, 0, int(a)*int(b))
	for u := uint32(0); u < a; u++ {
		for v := uint32(0); v < b; v++ {
			edges = append(edges, graph.Edge{U: u, V: a + v})
		}
	}
	return graph.FromEdges(a+b, edges, graph.BuildOpts{Symmetrize: true})
}

// AddUniformWeights returns a weighted copy of g with integer weights
// drawn uniformly from [1, log2 n), the paper's weighting scheme (§5.1.3).
// Both directions of an undirected edge receive the same weight (derived
// from a symmetric hash of the endpoints). g's structure is copied as is,
// so g must hold the CSR invariants every builder here establishes
// (sorted lists, no self-loops, no duplicates); the copy never aliases g,
// which may be a mapped container closed afterwards.
func AddUniformWeights(g *graph.Graph, seed uint64) *graph.Graph {
	n := g.NumVertices()
	maxW := int32(math.Log2(float64(n)))
	if maxW < 2 {
		maxW = 2
	}
	srcOff, srcEdges := g.Offsets(), g.Edges()
	offsets := make([]uint64, len(srcOff))
	edges := make([]uint32, len(srcEdges))
	weights := make([]int32, len(srcEdges))
	parallel.Copy(offsets, srcOff)
	parallel.Copy(edges, srcEdges)
	parallel.ForBlocks(int(n), 0, func(_, lo, hi int) {
		for v := uint32(lo); v < uint32(hi); v++ {
			for e := offsets[v]; e < offsets[v+1]; e++ {
				u := edges[e]
				h := hashPair(uint64(min(u, v))<<32|uint64(max(u, v)), seed)
				weights[e] = 1 + int32(h%uint64(maxW-1))
			}
		}
	})
	wg, err := graph.FromParts(n, g.NumEdges(), offsets, edges, weights)
	if err != nil {
		panic(err) // g's own offsets passed the same checks when it was built
	}
	return wg
}

func hashPair(x, seed uint64) uint64 {
	x ^= seed
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
