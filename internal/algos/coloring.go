package algos

import (
	"sync/atomic"

	"sage/internal/graph"
	"sage/internal/parallel"
)

// Coloring computes a (Δ+1)-coloring with the Jones–Plassmann algorithm
// under the largest-degree-first (LF) priority order that GBBS uses
// (§4.3.3): a vertex is colored once all higher-priority neighbors are
// colored, receiving the smallest color absent among its colored
// neighbors. The result equals the serial greedy coloring over the
// priority order. O(m) expected work, O(log n + L·log Δ) depth, O(n)
// words of small-memory.
func Coloring(g graph.Adj, o *Options) []uint32 {
	n := g.NumVertices()
	const uncolored = Infinity
	prio := parallel.Tabulate(int(n), func(i int) uint64 {
		// Larger degree first; ties broken by hashed id.
		return uint64(^g.Degree(uint32(i)))<<32 | (hash64(uint64(i), o.Seed) >> 32)
	})
	earlier := func(a, b uint32) bool {
		if prio[a] != prio[b] {
			return prio[a] < prio[b]
		}
		return a < b
	}

	color := make([]uint32, n)
	parallel.Fill(color, uncolored)
	count := make([]int32, n)
	o.Env.Alloc(5 * int64(n))
	defer o.Env.Free(5 * int64(n))

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
	})

	roots := parallel.PackIndex(int(n), func(i int) bool { return count[i] == 0 })
	// Round state, held for the run: per-worker palettes (all false between
	// vertices) and next-round candidate buckets, truncated every round;
	// each round's candidates are flattened into the last round's roots.
	palettes := make([][]bool, parallel.Workers())
	nextCand := make([][]uint32, parallel.Workers())
	for len(roots) > 0 {
		o.Checkpoint()
		for w := range nextCand {
			nextCand[w] = nextCand[w][:0]
		}
		parallel.ForWorker(len(roots), 4, func(w, i int) {
			v := roots[i]
			deg := g.Degree(v)
			o.Env.GraphRead(w, g.EdgeAddr(v), 2*g.ScanCost(v, 0, deg))
			// Smallest color not used by colored neighbors: a palette of
			// deg+1 booleans suffices.
			if len(palettes[w]) <= int(deg) {
				palettes[w] = make([]bool, deg+1)
			}
			palette := palettes[w][:deg+1]
			nghs, _ := flat.Slice(v, 0, deg, o.scratch(w))
			for _, u := range nghs {
				if c := atomic.LoadUint32(&color[u]); c <= deg {
					palette[c] = true
				}
			}
			c := uint32(0)
			for c <= deg && palette[c] {
				c++
			}
			clear(palette)
			atomic.StoreUint32(&color[v], c)
			o.Env.StateWrite(w, int64(deg)+2)
			// Release later neighbors.
			for _, u := range nghs {
				if earlier(v, u) && parallel.FetchAddInt32(&count[u], -1) == 0 {
					nextCand[w] = append(nextCand[w], u)
				}
			}
		})
		roots = parallel.FlattenUint32(roots, nextCand)
	}
	return color
}
