package algos

import (
	"sync/atomic"

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
	o.Env.Alloc(int64(n))
	defer o.Env.Free(int64(n))
	fr := frontier.Single(n, src)
	ops := traverse.Ops{
		Update: func(s, d uint32, _ int32) bool {
			if parents[d] == Infinity {
				parents[d] = s
				return true
			}
			return false
		},
		UpdateAtomic: func(s, d uint32, _ int32) bool {
			return parallel.CASUint32(&parents[d], Infinity, s)
		},
		Cond: func(d uint32) bool { return atomic.LoadUint32(&parents[d]) == Infinity },
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
	o.Env.Alloc(2 * int64(n))
	defer o.Env.Free(2 * int64(n))
	for _, s := range srcs {
		parents[s] = s
		levels[s] = 0
	}
	fr := frontier.FromSparse(n, append([]uint32(nil), srcs...))
	round := uint32(0)
	ops := traverse.Ops{
		Update: func(s, d uint32, _ int32) bool {
			if parents[d] == Infinity {
				parents[d] = s
				levels[d] = round + 1
				return true
			}
			return false
		},
		UpdateAtomic: func(s, d uint32, _ int32) bool {
			if parallel.CASUint32(&parents[d], Infinity, s) {
				levels[d] = round + 1
				return true
			}
			return false
		},
		Cond: func(d uint32) bool { return atomic.LoadUint32(&parents[d]) == Infinity },
	}
	for !fr.IsEmpty() {
		fr = o.edgeMap(g, fr, ops, nil)
		round++
	}
	return parents, levels, int(round)
}
