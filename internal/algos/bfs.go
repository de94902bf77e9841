package algos

import (
	"sage/internal/frontier"
	"sage/internal/graph"
	"sage/internal/parallel"
	"sage/internal/traverse"
)

// BFS computes a breadth-first-search tree from src, returning the parent
// array P: P[src] = src, P[v] = the BFS parent for reached v, and
// Infinity for unreachable vertices. It is the algorithm of Figure 4:
// O(m) work, O(dG log n) depth, O(n) words of small-memory (Theorem 4.2).
func BFS(g graph.Adj, o *Options, src uint32) []uint32 {
	n := g.NumVertices()
	parents := make([]uint32, n)
	parallel.Fill(parents, Infinity)
	parents[src] = src
	// unvisited is edgeMap's condition: a vertex is claimed by clearing
	// its bit, so parents[d] has one writer.
	unvisited := frontier.AllSet(n)
	frontier.Clear(unvisited, src)
	o.Env.Alloc(int64(n) + int64(len(unvisited)))
	defer o.Env.Free(int64(n) + int64(len(unvisited)))
	fr := frontier.Single(n, src)
	ops := traverse.Ops{
		Update: func(s, d uint32, _ int32) bool {
			frontier.Clear(unvisited, d)
			parents[d] = s
			return true
		},
		UpdateAtomic: func(s, d uint32, _ int32) bool {
			if frontier.Claim(unvisited, d) {
				parents[d] = s
				return true
			}
			return false
		},
		Cond: unvisited,
	}
	for !fr.IsEmpty() {
		fr = o.edgeMap(g, fr, ops, nil)
	}
	return parents
}

// BFSTree runs a (possibly multi-source) BFS recording parents and
// levels. Used by biconnectivity's spanning-tree phase.
func BFSTree(g graph.Adj, o *Options, srcs []uint32) (parents, levels []uint32, rounds int) {
	n := g.NumVertices()
	parents = make([]uint32, n)
	levels = make([]uint32, n)
	parallel.Fill(parents, Infinity)
	parallel.Fill(levels, Infinity)
	unvisited := frontier.AllSet(n)
	o.Env.Alloc(2*int64(n) + int64(len(unvisited)))
	defer o.Env.Free(2*int64(n) + int64(len(unvisited)))
	for _, s := range srcs {
		parents[s] = s
		levels[s] = 0
		frontier.Clear(unvisited, s)
	}
	fr := frontier.FromSparse(n, append([]uint32(nil), srcs...))
	round := uint32(0)
	ops := traverse.Ops{
		Update: func(s, d uint32, _ int32) bool {
			frontier.Clear(unvisited, d)
			parents[d] = s
			levels[d] = round + 1
			return true
		},
		UpdateAtomic: func(s, d uint32, _ int32) bool {
			if frontier.Claim(unvisited, d) {
				parents[d] = s
				levels[d] = round + 1
				return true
			}
			return false
		},
		Cond: unvisited,
	}
	for !fr.IsEmpty() {
		fr = o.edgeMap(g, fr, ops, nil)
		round++
	}
	return parents, levels, int(round)
}
