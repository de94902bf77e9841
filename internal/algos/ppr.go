package algos

import (
	"math"

	"sage/internal/graph"
	"sage/internal/parallel"
)

// PersonalizedPageRank computes the personalized PageRank vector of a
// source vertex by power iteration with restart: ranks teleport back to
// src with probability 1-damping. The paper's applicability discussion
// (§3.2) lists personalized PageRank among the local problems that
// "naturally fit in the regular PSAM model": the iteration state is two
// O(n) DRAM vectors and the graph is only read. Returns the rank vector
// and the number of iterations until the L1 change fell below eps.
func PersonalizedPageRank(g graph.Adj, o *Options, src uint32, damping, eps float64, maxIters int) ([]float64, int) {
	n := int(g.NumVertices())
	if damping <= 0 || damping >= 1 {
		damping = 0.85
	}
	if eps <= 0 {
		eps = 1e-8
	}
	if maxIters <= 0 {
		maxIters = 100
	}
	prev := make([]float64, n)
	next := make([]float64, n)
	contrib := make([]float64, n)
	o.Env.Alloc(3 * int64(n))
	defer o.Env.Free(3 * int64(n))
	prev[src] = 1

	flat := graph.NewFlat(g)
	iters := 0
	for iters < maxIters {
		o.Checkpoint()
		parallel.For(n, 0, func(i int) {
			if d := g.Degree(uint32(i)); d > 0 {
				contrib[i] = prev[i] / float64(d)
			} else {
				contrib[i] = 0
			}
		})
		var diffs [parallel.MaxWorkers]struct {
			d float64
			_ [56]byte
		}
		parallel.ForBlocks(n, 64, func(w, lo, hi int) {
			sc := o.scratch(w)
			var scanned int64
			var l1 float64
			for i := lo; i < hi; i++ {
				v := uint32(i)
				var acc float64
				nghs, _ := flat.Full(v, sc)
				for _, u := range nghs {
					acc += contrib[u]
				}
				scanned += int64(len(nghs))
				nv := damping * acc
				if v == src {
					nv += 1 - damping
				}
				l1 += math.Abs(nv - prev[i])
				next[i] = nv
			}
			o.Env.GraphRead(w, 0, scanned)
			o.Env.StateRead(w, scanned)
			o.Env.StateWrite(w, int64(hi-lo))
			diffs[w].d += l1
		})
		prev, next = next, prev
		iters++
		var total float64
		for i := range diffs {
			total += diffs[i].d
		}
		if total < eps {
			break
		}
	}
	return prev, iters
}
