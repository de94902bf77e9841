package algos

import (
	"math"
	"sync/atomic"

	"sage/internal/bucket"
	"sage/internal/frontier"
	"sage/internal/graph"
	"sage/internal/parallel"
)

// BipartiteFromSets builds the set-cover instance graph: sets are
// vertices [0, len(sets)) and elements are vertices [len(sets),
// len(sets)+numElements); each set is adjacent to its elements.
func BipartiteFromSets(sets [][]uint32, numElements uint32) *graph.Graph {
	ns := uint32(len(sets))
	var edges []graph.Edge
	for s, elems := range sets {
		for _, e := range elems {
			edges = append(edges, graph.Edge{U: uint32(s), V: ns + e})
		}
	}
	return graph.FromEdges(ns+numElements, edges, graph.BuildOpts{Symmetrize: true})
}

// ApproxSetCover computes an O(log n)-approximate set cover with the
// bucketing-based MaNIS algorithm of Julienne/GBBS (§4.3.3): sets are
// bucketed by ⌊log_{1+ε} degree⌋ in decreasing order; popping the top
// bucket lazily re-packs each set's uncovered elements through the graph
// filter; sets still in the degree class compete for their elements with
// priority-writes, and a set enters the cover when it wins at least a
// 1/(1+ε) fraction of its class threshold. The filter replaces GBBS's
// in-place adjacency packing, so the NVRAM graph is never written.
// O(m) expected work, O(log³ n) depth whp, O(n + m/64) words.
//
// The graph must be the bipartite layout of BipartiteFromSets; numSets
// is the number of set vertices. The result lists the chosen sets.
func ApproxSetCover(g graph.Adj, o *Options, numSets uint32) []uint32 {
	n := g.NumVertices()
	eps := o.Eps
	if eps <= 0 {
		eps = 0.05
	}
	logBase := math.Log(1 + eps)
	bucketOf := func(d uint32) uint32 {
		if d == 0 {
			return bucket.Null
		}
		return uint32(math.Log(float64(d)) / logBase)
	}
	classFloor := func(t uint32) int64 {
		return int64(math.Ceil(math.Pow(1+eps, float64(t))))
	}

	covered := make([]uint64, frontier.Words(n)) // element vertex ids
	owner := make([]uint64, n)
	words := int64(n) + int64(len(covered))
	o.Env.Alloc(words)
	defer o.Env.Free(words)

	f := o.newFilter(g)
	defer o.Env.Free(f.SizeWords())
	uncovered := func(_, e uint32) bool { return !frontier.Has(covered, e) }
	elems := make([][]uint32, parallel.Workers()) // per worker: the set's uncovered elements, re-read per pass

	prio := make([]uint32, n)
	parallel.For(int(n), 0, func(i int) {
		if uint32(i) < numSets {
			prio[i] = bucketOf(g.Degree(uint32(i)))
		} else {
			prio[i] = bucket.Null
		}
	})
	b := bucket.New(prio, bucket.Decreasing)

	var cover []uint32
	for {
		o.Checkpoint()
		t, sets, ok := b.NextBucket()
		if !ok {
			break
		}
		// Lazy degree maintenance: pack away covered elements.
		_, newDeg := f.EdgeMapPack(frontier.FromSparse(n, sets), uncovered)
		floor := classFloor(t)
		competing := parallel.FilterIndex(sets, func(i int, _ uint32) bool {
			return int64(newDeg[i]) >= floor
		})
		// Degraded sets re-enter at their true bucket.
		degraded := parallel.FilterIndex(sets, func(i int, _ uint32) bool {
			return int64(newDeg[i]) < floor && newDeg[i] > 0
		})
		if len(degraded) > 0 {
			prios := make([]uint32, len(degraded))
			parallel.For(len(degraded), 0, func(i int) {
				prios[i] = bucketOf(f.Degree(degraded[i]))
			})
			b.UpdateBatch(degraded, prios)
		}
		if len(competing) == 0 {
			continue
		}
		// Competition: priority-writes on elements. The minimum-priority
		// competing set always wins all its elements, so every round makes
		// progress.
		parallel.ForWorker(len(competing), 1, func(w, i int) {
			s := competing[i]
			p := hash64(uint64(s), o.Seed) | 1
			elems[w] = f.ActiveList(w, s, elems[w], nil)
			for _, e := range elems[w] {
				writeMinU64(&owner[e], p)
			}
			o.Env.StateWrite(w, int64(len(elems[w])))
		})
		won := make([]uint32, len(competing))
		parallel.ForWorker(len(competing), 1, func(w, i int) {
			s := competing[i]
			p := hash64(uint64(s), o.Seed) | 1
			var cnt uint32
			elems[w] = f.ActiveList(w, s, elems[w], nil)
			for _, e := range elems[w] {
				if atomic.LoadUint64(&owner[e]) == p {
					cnt++
				}
			}
			won[i] = cnt
		})
		winThreshold := float64(floor) / (1 + eps)
		var reinsert []uint32
		var reinsertPrio []uint32
		for i, s := range competing {
			if float64(won[i]) >= winThreshold {
				cover = append(cover, s)
			} else {
				reinsert = append(reinsert, s)
			}
		}
		// Winners cover the elements they own.
		parallel.ForWorker(len(competing), 1, func(w, i int) {
			s := competing[i]
			if float64(won[i]) < winThreshold {
				return
			}
			p := hash64(uint64(s), o.Seed) | 1
			elems[w] = f.ActiveList(w, s, elems[w], nil)
			for _, e := range elems[w] {
				if atomic.LoadUint64(&owner[e]) == p {
					frontier.Set(covered, e)
				}
			}
		})
		// Reset ownership for the next round.
		parallel.ForWorker(len(competing), 1, func(w, i int) {
			elems[w] = f.ActiveList(w, competing[i], elems[w], nil)
			for _, e := range elems[w] {
				atomic.StoreUint64(&owner[e], 0)
			}
		})
		if len(reinsert) > 0 {
			_, reinsertPrio = f.EdgeMapPack(frontier.FromSparse(n, reinsert), uncovered)
			parallel.For(len(reinsertPrio), 0, func(i int) {
				reinsertPrio[i] = bucketOf(reinsertPrio[i])
			})
			b.UpdateBatch(reinsert, reinsertPrio)
		}
	}
	return cover
}
