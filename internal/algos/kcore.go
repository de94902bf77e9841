package algos

import (
	"sync/atomic"

	"sage/internal/bucket"
	"sage/internal/frontier"
	"sage/internal/graph"
	"sage/internal/parallel"
)

// KCore computes the coreness of every vertex with the Julienne peeling
// algorithm (§4.3.4): vertices are bucketed by remaining degree; popping
// the minimum bucket k finalizes its vertices with coreness k, and the
// degree losses of their neighbors are aggregated — with the histogram
// primitive (including its dense variant past the m/20 threshold) by
// default, or with fetch-and-add when o.KCoreFetchAdd is set (the
// theoretically clean variant that suffers contention in practice,
// §4.3.4). O(m) expected work, O(ρ log n) depth whp, O(n) words.
func KCore(g graph.Adj, o *Options) []uint32 {
	n := g.NumVertices()
	coreness := make([]uint32, n)
	deg := parallel.Tabulate(int(n), func(i int) uint32 { return g.Degree(uint32(i)) })
	live := frontier.AllSet(n) // the vertices not yet peeled
	words := 3*int64(n) + int64(len(live))
	o.Env.Alloc(words)
	defer o.Env.Free(words)

	prio := make([]uint32, n)
	parallel.Copy(prio, deg)
	b := bucket.New(prio, bucket.Increasing)
	nc := newNeighborCounter(g, o, live)
	defer nc.free()
	var ids, prios []uint32 // the round's bucket moves, reused

	for {
		o.Checkpoint()
		k, peeled, ok := b.NextBucket()
		if !ok {
			break
		}
		parallel.For(len(peeled), 0, func(i int) {
			coreness[peeled[i]] = k
			frontier.Claim(live, peeled[i])
		})
		if o.KCoreFetchAdd {
			kcoreFetchAdd(g, o, b, live, peeled, deg, k)
			continue
		}
		counts := nc.count(peeled)
		if len(counts) == 0 {
			continue
		}
		ids = parallel.Resize(ids, len(counts))
		prios = parallel.Resize(prios, len(counts))
		parallel.For(len(counts), 0, func(i int) {
			v := counts[i].Key
			nd := deg[v]
			if counts[i].Count >= nd-k {
				nd = k
			} else {
				nd -= counts[i].Count
			}
			deg[v] = nd
			ids[i] = v
			prios[i] = nd
		})
		b.UpdateBatch(ids, prios)
	}
	return coreness
}

// kcoreFetchAdd is the fetch-and-add peeling round: each peeled vertex
// atomically decrements its live neighbors' degrees; vertices whose
// degree changed are collected for a bulk bucket update.
func kcoreFetchAdd(g graph.Adj, o *Options, b *bucket.Buckets, live []uint64, peeled []uint32, deg []uint32, k uint32) {
	touched := make([][]uint32, parallel.Workers())
	fa := graph.NewFlat(g)
	parallel.ForWorker(len(peeled), 4, func(w, i int) {
		v := peeled[i]
		nghs, _ := fa.Read(o.Env, w, v, 0, g.Degree(v), o.scratch(w))
		for _, u := range nghs {
			if !frontier.Has(live, u) {
				continue
			}
			// Decrement with a floor of k.
			for {
				old := atomic.LoadUint32(&deg[u])
				if old <= k {
					break
				}
				if atomic.CompareAndSwapUint32(&deg[u], old, old-1) {
					touched[w] = append(touched[w], u)
					break
				}
			}
			o.Env.StateWrite(w, 1)
		}
	})
	flat := parallel.FlattenUint32(nil, touched)
	// Deduplicate before the bulk bucket move (UpdateBatch requires
	// distinct ids).
	if len(flat) == 0 {
		return
	}
	var hs parallel.HistScratch
	hist := parallel.HistogramInPlace(flat, &hs)
	ids := make([]uint32, len(hist))
	prios := make([]uint32, len(hist))
	parallel.For(len(hist), 0, func(i int) {
		v := hist[i].Key
		ids[i] = v
		nd := atomic.LoadUint32(&deg[v])
		if nd < k {
			nd = k
		}
		prios[i] = nd
	})
	b.UpdateBatch(ids, prios)
}

// MaxCore returns the largest k with a non-empty k-core, i.e. the maximum
// coreness (the paper reports kmax = 10565 on Hyperlink2012).
func MaxCore(coreness []uint32) uint32 {
	return parallel.ReduceMax(len(coreness), 0, uint32(0), func(i int) uint32 {
		return coreness[i]
	})
}
