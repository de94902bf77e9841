package algos

import (
	"sync/atomic"

	"sage/internal/graph"
	"sage/internal/parallel"
)

// Coloring computes a (Δ+1)-coloring with the Jones–Plassmann algorithm
// under the largest-degree-first (LF) priority order that GBBS uses
// (§4.3.3), ties broken by a hash of the id and then by the id: a vertex
// is colored once all higher-priority neighbors are colored, receiving the
// smallest color absent among its colored neighbors. The result equals the
// serial greedy coloring over the priority order. O(m) expected work,
// O(log n + L·log Δ) depth, O(n) words of small-memory.
//
// A root reads its list once: the pass that fills its palette also
// releases its uncolored neighbors, which are exactly its later ones.
// Every earlier neighbor was colored in an earlier round, and no two
// roots of one round are adjacent, so no neighbor's color changes while
// the round runs.
func Coloring(g graph.Adj, o *Options) []uint32 {
	n := g.NumVertices()
	d := newPrioDAG(g, o, lfPriority(g, o.Seed))
	defer d.free()
	color := make([]uint32, n)
	parallel.Fill(color, Infinity) // uncolored
	o.Env.Alloc(2 * int64(n))      // the colors and the palettes
	defer o.Env.Free(2 * int64(n))

	palettes := make([][]bool, parallel.Workers()) // all false between vertices
	d.run(func(roots []uint32) {
		parallel.ForWorker(len(roots), 4, func(w, i int) {
			v := roots[i]
			deg := g.Degree(v)
			nghs := d.adj(w, v)
			// Smallest color not used by colored neighbors: a palette of
			// deg+1 booleans suffices.
			if len(palettes[w]) <= int(deg) {
				palettes[w] = make([]bool, deg+1)
			}
			palette := palettes[w][:deg+1]
			for _, u := range nghs {
				switch c := atomic.LoadUint32(&color[u]); {
				case c == Infinity:
					if atomic.AddInt32(&d.count[u], -1) == 0 {
						d.next[w] = append(d.next[w], u)
					}
				case c <= deg:
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
		})
	})
	return color
}

// lfPriority orders larger degrees first, then by a hash of the id.
func lfPriority(g graph.Adj, seed uint64) func(v uint32) uint64 {
	return func(v uint32) uint64 { return uint64(^g.Degree(v))<<32 | hash64(uint64(v), seed)>>32 }
}
