package algos

import (
	"math"
	"sort"
	"sync/atomic"

	"sage/internal/bucket"
	"sage/internal/graph"
	"sage/internal/parallel"
)

// KTruss computes the trussness of every undirected edge: the largest k
// such that the edge belongs to the k-truss (the maximal subgraph where
// every edge closes at least k-2 triangles). The paper's model discussion
// (§3.2) flags k-truss as a problem that does NOT fit the PSAM: the
// output alone is Θ(m) words, so Θ(m) small-memory (or Θ(ωm) NVRAM
// writes) is unavoidable. This implementation is included to demonstrate
// that boundary — it keeps the graph read-only but allocates Θ(m) DRAM
// words of support/trussness state, which the space tracker exposes
// (contrast with the O(n + m/64) footprints of the Table 1 algorithms).
//
// The result maps each edge {u, v} with u < v, identified by its
// EdgeID, to its trussness (2 for triangle-free edges).
type KTrussResult struct {
	// UpOffsets[u] is the index of u's first up-edge (u < v) in the edge
	// id space; up-edges of u are ordered by neighbor id.
	UpOffsets []uint64
	// Trussness per edge id.
	Trussness []uint32
	g         graph.Adj
}

// EdgeID returns the id of edge {u, v} (any order); ok is false if the
// edge is absent.
func (r *KTrussResult) EdgeID(u, v uint32) (uint32, bool) {
	if u > v {
		u, v = v, u
	}
	// Up-edges of u are its neighbors greater than u, in adjacency order.
	var s graph.Scratch
	nghs, _ := r.g.Slice(u, 0, math.MaxUint32, &s)
	idx := r.UpOffsets[u]
	for _, ngh := range nghs {
		if ngh <= u {
			continue
		}
		if ngh == v {
			return uint32(idx), true
		}
		idx++
	}
	return 0, false
}

// EdgeTrussness returns the trussness of edge {u, v}.
func (r *KTrussResult) EdgeTrussness(u, v uint32) (uint32, bool) {
	id, ok := r.EdgeID(u, v)
	if !ok {
		return 0, false
	}
	return r.Trussness[id], true
}

// KTruss peels edges by triangle support with the same bucketing
// structure as k-core, but over the edge set.
func KTruss(g graph.Adj, o *Options) *KTrussResult {
	n := int(g.NumVertices())
	// Edge id space: up-edges (u < v), offset per vertex.
	upOff := make([]uint64, n+1)
	flat := graph.NewFlat(g)
	// upNeighbors returns the suffix of v's sorted adjacency above v.
	upNeighbors := func(w int, v uint32) []uint32 {
		nghs, _ := flat.Read(o.Env, w, v, 0, g.Degree(v), o.scratch(w))
		return nghs[sort.Search(len(nghs), func(i int) bool { return nghs[i] > v }):]
	}
	parallel.ForWorker(n, 0, func(w, i int) {
		upOff[i] = uint64(len(upNeighbors(w, uint32(i))))
	})
	mUp := parallel.Scan(upOff)
	upOff[n] = mUp
	o.Env.Alloc(int64(n) + 3*int64(mUp)) // the Θ(m) state §3.2 predicts
	defer o.Env.Free(int64(n) + 3*int64(mUp))

	// Materialize the up-edge endpoints for direct indexing.
	eu := make([]uint32, mUp)
	ev := make([]uint32, mUp)
	parallel.ForWorker(n, 16, func(w, i int) {
		up := upNeighbors(w, uint32(i))
		copy(ev[upOff[i]:], up)
		for k := range up {
			eu[upOff[i]+uint64(k)] = uint32(i)
		}
	})
	res := &KTrussResult{UpOffsets: upOff[:n+1], Trussness: make([]uint32, mUp), g: g}

	// eid looks up the id of up-edge (u, v), u < v, by binary search over
	// ev within u's up-range.
	eid := func(u, v uint32) (uint32, bool) {
		lo, hi := upOff[u], upOff[u+1]
		i := uint64(sort.Search(int(hi-lo), func(k int) bool {
			return ev[lo+uint64(k)] >= v
		})) + lo
		if i < hi && ev[i] == v {
			return uint32(i), true
		}
		return 0, false
	}

	// Support counting: enumerate each triangle u < v < w once from its
	// lowest vertex, incrementing all three edges atomically.
	support := make([]uint32, mUp)
	parallel.ForWorker(int(mUp), 8, func(w, e int) {
		u, v := eu[e], ev[e]
		// Common neighbors x > v are the apexes of triangles u < v < x.
		iterCommon(&flat, o, w, u, v, func(x uint32) {
			if x <= v {
				return
			}
			if euv, ok := eid(u, x); ok {
				if evw, ok2 := eid(v, x); ok2 {
					atomic.AddUint32(&support[e], 1)
					atomic.AddUint32(&support[euv], 1)
					atomic.AddUint32(&support[evw], 1)
				}
			}
		})
	})

	// Peel edges by support; trussness = final support bucket + 2.
	// removalRound[e] = the round e was peeled in (-1 while live); it
	// disambiguates triangles losing several edges in one round: the
	// minimum-id peeled edge of the triangle is its representative and
	// issues the (single) decrement for each surviving edge.
	prio := make([]uint32, mUp)
	parallel.Copy(prio, support)
	b := bucket.New(prio, bucket.Increasing)
	removalRound := make([]int32, mUp)
	parallel.Fill(removalRound, -1)
	round := int32(0)
	var hs parallel.HistScratch
	for {
		o.Checkpoint()
		s, peeled, ok := b.NextBucket()
		if !ok {
			break
		}
		cur := round
		parallel.For(len(peeled), 0, func(i int) {
			res.Trussness[peeled[i]] = s + 2
			removalRound[peeled[i]] = cur
		})
		// Gather one decrement per dying triangle per surviving edge.
		lists := make([][]uint32, parallel.Workers())
		parallel.ForWorker(len(peeled), 2, func(w, i int) {
			e := peeled[i]
			u, v := eu[e], ev[e]
			iterCommon(&flat, o, w, u, v, func(x uint32) {
				e1, ok1 := eidAny(eid, u, x)
				e2, ok2 := eidAny(eid, v, x)
				if !ok1 || !ok2 {
					return
				}
				r1, r2 := removalRound[e1], removalRound[e2]
				if (r1 >= 0 && r1 < cur) || (r2 >= 0 && r2 < cur) {
					return // triangle already dead before this round
				}
				// Representative: minimum id among the edges of this
				// triangle peeled in this round.
				rep := e
				if r1 == cur && e1 < rep {
					rep = e1
				}
				if r2 == cur && e2 < rep {
					rep = e2
				}
				if rep != e {
					return
				}
				if r1 < 0 {
					lists[w] = append(lists[w], e1)
				}
				if r2 < 0 {
					lists[w] = append(lists[w], e2)
				}
			})
		})
		round++
		lost := parallel.FlattenUint32(nil, lists)
		if len(lost) == 0 {
			continue
		}
		counts := parallel.HistogramInPlace(lost, &hs)
		ids := make([]uint32, 0, len(counts))
		prios := make([]uint32, 0, len(counts))
		for _, kc := range counts {
			e := kc.Key
			if removalRound[e] >= 0 {
				continue
			}
			ns := support[e]
			if kc.Count >= ns-s {
				ns = s
			} else {
				ns -= kc.Count
			}
			support[e] = ns
			ids = append(ids, e)
			prios = append(prios, ns)
		}
		b.UpdateBatch(ids, prios)
	}
	return res
}

// eidAny looks up the edge id of {a, b} in either order.
func eidAny(eid func(u, v uint32) (uint32, bool), a, b uint32) (uint32, bool) {
	if a < b {
		return eid(a, b)
	}
	return eid(b, a)
}

// iterCommon merge-intersects the sorted adjacencies of u and v.
func iterCommon(flat *graph.Flat, o *Options, worker int, u, v uint32, fn func(x uint32)) {
	// Two lists are live at once: u's sits in the worker's scratch, v's
	// one level down, where no decode of u's can reach it.
	su := o.scratch(worker)
	nu, _ := flat.Read(o.Env, worker, u, 0, math.MaxUint32, su)
	nv, _ := flat.Read(o.Env, worker, v, 0, math.MaxUint32, su.Inner())
	i, j := 0, 0
	for i < len(nu) && j < len(nv) {
		switch {
		case nu[i] < nv[j]:
			i++
		case nu[i] > nv[j]:
			j++
		default:
			fn(nu[i])
			i++
			j++
		}
	}
}
