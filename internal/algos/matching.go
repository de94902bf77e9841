package algos

import (
	"sync/atomic"

	"sage/internal/graph"
	"sage/internal/parallel"
)

// MaximalMatching computes a maximal matching with the phase-based
// filtering algorithm of Appendix C.3: each phase extracts the active
// edges of a prefix of vertices (O(n) edges), resolves them with
// deterministic reservations over random edge priorities (Blelloch et
// al.), and then packs the graph filter — removing processed edges and
// all edges incident to newly matched vertices — instead of mutating the
// NVRAM-resident graph. O(m) expected work, O(log³ m) depth whp,
// O(n + m/64) words of small-memory.
func MaximalMatching(g graph.Adj, o *Options) []graph.Edge {
	n := g.NumVertices()
	f := o.newFilter(g)
	defer o.Env.Free(f.SizeWords())
	matched := make([]uint32, n) // 0 = free, 1 = matched
	reserve := make([]uint64, n)
	o.Env.Alloc(3 * int64(n))
	defer o.Env.Free(3 * int64(n))

	var matchedEdges []graph.Edge
	// nghs[w] is worker w's buffer for the active list it is extracting.
	nghs := make([][]uint32, parallel.Workers())
	vCut := uint32(0) // vertices below vCut have had their edges processed
	budget := int64(2 * n)

	for f.ActiveEdges() > 0 && vCut < n {
		o.Checkpoint()
		// Advance the cut so the phase covers ~budget active edges.
		newCut := vCut
		var acc int64
		for newCut < n && acc < budget {
			o.Checkpoint()
			acc += int64(f.Degree(newCut))
			newCut++
		}
		// Extract active edges (u, v) with vCut <= u < newCut and v > u.
		// Edges whose lower endpoint is below vCut were processed in an
		// earlier phase; edges with lower endpoint in [vCut, newCut) are
		// processed now.
		lists := make([][]uint32, parallel.Workers()) // packed u,v pairs
		parallel.ForWorker(int(newCut-vCut), 4, func(w, i int) {
			u := vCut + uint32(i)
			if atomic.LoadUint32(&matched[u]) == 1 {
				return
			}
			nghs[w] = f.ActiveList(w, u, nghs[w], nil)
			for _, v := range nghs[w] {
				if v > u && atomic.LoadUint32(&matched[v]) == 0 {
					lists[w] = append(lists[w], u, v)
				}
			}
		})
		flat := parallel.FlattenUint32(nil, lists)
		live := make([]graph.Edge, len(flat)/2)
		parallel.For(len(live), 0, func(i int) {
			live[i] = graph.Edge{U: flat[2*i], V: flat[2*i+1]}
		})
		phaseWords := int64(len(live))
		o.Env.Alloc(phaseWords)

		// Deterministic reservations until the extracted set drains.
		for len(live) > 0 {
			o.Checkpoint()
			parallel.ForWorker(len(live), 0, func(w, i int) {
				e := live[i]
				p := hash64(edgeKey(e.U, e.V), o.Seed) | 1
				writeMinU64(&reserve[e.U], p)
				writeMinU64(&reserve[e.V], p)
				o.Env.StateWrite(w, 2)
			})
			winners := make([]bool, len(live))
			wonLists := make([][]uint32, parallel.Workers())
			parallel.ForWorker(len(live), 0, func(w, i int) {
				e := live[i]
				p := hash64(edgeKey(e.U, e.V), o.Seed) | 1
				if atomic.LoadUint64(&reserve[e.U]) == p && atomic.LoadUint64(&reserve[e.V]) == p {
					winners[i] = true
					atomic.StoreUint32(&matched[e.U], 1)
					atomic.StoreUint32(&matched[e.V], 1)
					wonLists[w] = append(wonLists[w], e.U, e.V)
				}
			})
			wonFlat := parallel.FlattenUint32(nil, wonLists)
			for i := 0; i < len(wonFlat); i += 2 {
				matchedEdges = append(matchedEdges, graph.Edge{U: wonFlat[i], V: wonFlat[i+1]})
			}
			// Drop matched-incident edges and reset reservations of
			// surviving endpoints.
			next := parallel.Filter(live, func(e graph.Edge) bool {
				return atomic.LoadUint32(&matched[e.U]) == 0 &&
					atomic.LoadUint32(&matched[e.V]) == 0
			})
			parallel.For(len(next), 0, func(i int) {
				atomic.StoreUint64(&reserve[next[i].U], ^uint64(0))
				atomic.StoreUint64(&reserve[next[i].V], ^uint64(0))
			})
			live = next
		}
		o.Env.Free(phaseWords)

		// Pack the filter: processed edges (lower endpoint below newCut)
		// and matched-incident edges disappear.
		cut := newCut
		f.FilterEdges(func(u, v uint32) bool {
			if matched[u] == 1 || matched[v] == 1 {
				return false
			}
			return min(u, v) >= cut
		})
		vCut = newCut
	}
	return matchedEdges
}

// writeMinU64 is a priority-write on uint64 (reservations start at zero,
// which would always win; initialize by treating 0 as "empty").
func writeMinU64(p *uint64, v uint64) {
	for {
		old := atomic.LoadUint64(p)
		if old != 0 && old <= v {
			return
		}
		if atomic.CompareAndSwapUint64(p, old, v) {
			return
		}
	}
}
