package algos

import (
	"sync/atomic"

	"sage/internal/graph"
	"sage/internal/parallel"
)

// Vertex decision states of the rootset algorithms (MIS, coloring).
const (
	stateUndecided uint32 = iota
	stateIn
	stateOut
)

// MIS computes a maximal independent set with the rootset-based greedy
// algorithm (§4.3.3, after Blelloch–Fineman–Shun): vertices carry random
// priorities; a vertex joins the MIS when every higher-priority neighbor
// has been decided and none of them joined. The result equals the serial
// greedy MIS over the priority order, which makes it deterministic in the
// seed. O(m) expected work, O(log² n) depth whp, O(n) words.
func MIS(g graph.Adj, o *Options) []bool {
	n := g.NumVertices()
	prio := parallel.Tabulate(int(n), func(i int) uint64 {
		return hash64(uint64(i), o.Seed)<<20 | uint64(i)
	})
	earlier := func(a, b uint32) bool { return prio[a] < prio[b] }

	state := make([]uint32, n)
	count := make([]int32, n) // undecided higher-priority neighbors
	o.Env.Alloc(4 * int64(n))
	defer o.Env.Free(4 * int64(n))

	flat := graph.NewFlat(g)
	parallel.ForBlocks(int(n), 64, func(w, lo, hi int) {
		sc := o.scratch(w)
		var scanned int64
		for i := lo; i < hi; i++ {
			v := uint32(i)
			var c int32
			nghs, _ := flat.Full(v, sc)
			for _, u := range nghs {
				if earlier(u, v) {
					c++
				}
			}
			scanned += int64(len(nghs))
			count[i] = c
		}
		o.Env.GraphRead(w, 0, scanned)
		o.Env.StateWrite(w, int64(hi-lo))
	})

	// Initial rootset: undecided vertices with no earlier neighbors.
	roots := parallel.PackIndex(int(n), func(i int) bool { return count[i] == 0 })
	// Round state, held for the run and truncated every round: per worker,
	// the neighbors it decided Out, the roots it let join and the
	// next-round candidates; and the flattened decided and candidate sets.
	p := parallel.Workers()
	lists := make([][]uint32, 3*p)
	newlyOut, joined, nextCand := lists[:p], lists[p:2*p], lists[2*p:]
	var decided, cand []uint32
	for len(roots) > 0 {
		o.Checkpoint()
		for w := range lists {
			lists[w] = lists[w][:0]
		}
		// Roots join the MIS; their neighbors leave. Two roots cannot be
		// adjacent: a root has no earlier undecided neighbor, and of two
		// adjacent roots one would be the other's earlier undecided
		// neighbor — so the In-CAS below cannot race with another In.
		parallel.ForWorker(len(roots), 4, func(w, i int) {
			v := roots[i]
			if !parallel.CASUint32(&state[v], stateUndecided, stateIn) {
				return // already decided in an earlier round (stale candidate)
			}
			joined[w] = append(joined[w], v)
			deg := g.Degree(v)
			o.Env.GraphRead(w, g.EdgeAddr(v), g.ScanCost(v, 0, deg))
			nghs, _ := flat.Slice(v, 0, deg, o.scratch(w))
			for _, u := range nghs {
				if parallel.CASUint32(&state[u], stateUndecided, stateOut) {
					newlyOut[w] = append(newlyOut[w], u)
				}
			}
		})
		decided = parallel.FlattenUint32(decided, lists[:2*p])
		// Decided vertices release their later neighbors.
		parallel.ForWorker(len(decided), 4, func(w, i int) {
			v := decided[i]
			deg := g.Degree(v)
			o.Env.GraphRead(w, g.EdgeAddr(v), g.ScanCost(v, 0, deg))
			nghs, _ := flat.Slice(v, 0, deg, o.scratch(w))
			for _, u := range nghs {
				if earlier(v, u) && parallel.FetchAddInt32(&count[u], -1) == 0 &&
					atomic.LoadUint32(&state[u]) == stateUndecided {
					nextCand[w] = append(nextCand[w], u)
				}
			}
		})
		cand = parallel.FlattenUint32(cand, nextCand)
		roots = parallel.Resize(roots, len(cand))
		roots = roots[:parallel.PackInto(roots, cand, func(v uint32) bool {
			return atomic.LoadUint32(&state[v]) == stateUndecided
		})]
	}
	return parallel.Tabulate(int(n), func(i int) bool { return state[i] == stateIn })
}
