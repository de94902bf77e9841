package algos

import (
	"sync/atomic"

	"sage/internal/graph"
	"sage/internal/parallel"
)

// prioDAG is the priority DAG that MIS and coloring schedule over, as GBBS
// builds both (§4.3.3): each edge points from its earlier endpoint to its
// later one, and a vertex is a root once every earlier neighbour has
// released it. Earlier means a smaller key, ties broken by the smaller id,
// so the order is total and two adjacent vertices are never both roots.
type prioDAG struct {
	g     graph.Adj
	o     *Options
	flat  graph.Flat
	prio  []uint64
	count []int32    // earlier neighbours not yet released
	live  []uint64   // the vertices release may still admit; nil = all
	next  [][]uint32 // per worker, the next round's roots
}

// newPrioDAG counts every vertex's earlier neighbours, billing the keys
// and counts (3n words) until free.
func newPrioDAG(g graph.Adj, o *Options, key func(v uint32) uint64) *prioDAG {
	n := g.NumVertices()
	d := &prioDAG{g: g, o: o, flat: graph.NewFlat(g), count: make([]int32, n),
		next: make([][]uint32, parallel.Workers())}
	d.prio = parallel.Tabulate(int(n), func(i int) uint64 { return key(uint32(i)) })
	o.Env.Alloc(3 * int64(n))
	parallel.ForBlocks(int(n), 64, func(w, lo, hi int) {
		sc := o.scratch(w)
		for v := uint32(lo); v < uint32(hi); v++ {
			var c int32
			nghs, _ := d.flat.Slice(v, 0, g.Degree(v), sc)
			for _, u := range nghs {
				if d.earlier(u, v) {
					c++
				}
			}
			d.count[v] = c
		}
		d.flat.BillLists(o.Env, w, uint32(lo), uint32(hi))
		o.Env.StateWrite(w, int64(hi-lo))
	})
	return d
}

func (d *prioDAG) free() { d.o.Env.Free(3 * int64(len(d.count))) }

func (d *prioDAG) earlier(a, b uint32) bool {
	return d.prio[a] < d.prio[b] || d.prio[a] == d.prio[b] && a < b
}

// adj reads v's neighbours and bills the read.
func (d *prioDAG) adj(w int, v uint32) []uint32 {
	nghs, _ := d.flat.Read(d.o.Env, w, v, 0, d.g.Degree(v), d.o.scratch(w))
	return nghs
}

// release retires the decided vertex v from the counts of its live later
// neighbours and queues each one whose count reaches 0. Liveness is tested
// first: a dead vertex's count is never read again, so the read saves a
// contended atomic write. It is a plain read, since no claim may run
// while counts are released; the race detector holds callers to that.
func (d *prioDAG) release(w int, v uint32, nghs []uint32) {
	for _, u := range nghs {
		if (d.live == nil || d.live[u>>6]&(1<<(u&63)) != 0) && d.earlier(v, u) &&
			atomic.AddInt32(&d.count[u], -1) == 0 {
			d.next[w] = append(d.next[w], u)
		}
	}
}

// run calls round on each round's roots, from the vertices with no earlier
// neighbour on, until a round releases none.
func (d *prioDAG) run(round func(roots []uint32)) {
	roots := parallel.PackIndex(len(d.count), func(i int) bool { return d.count[i] == 0 })
	for len(roots) > 0 {
		d.o.Checkpoint()
		for w := range d.next {
			d.next[w] = d.next[w][:0]
		}
		round(roots)
		roots = parallel.FlattenUint32(roots, d.next)
	}
}
