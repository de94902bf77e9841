package algos

import (
	"sage/internal/frontier"
	"sage/internal/graph"
	"sage/internal/parallel"
)

// MIS computes a maximal independent set with the rootset-based greedy
// algorithm (§4.3.3, after Blelloch–Fineman–Shun): vertices carry random
// priorities, ties broken by id, and a vertex joins once every earlier
// neighbor is decided and none of them joined. The result equals the
// serial greedy MIS over that order, so it is deterministic in the seed.
// O(m) expected work, O(log² n) depth whp, O(n) words.
//
// The undecided vertices are a bitmap, ⌈n/64⌉ words: each round's roots
// join and claim their neighbors out of it, and then every vertex newly
// out releases only its undecided later neighbors, the only ones whose
// counts are read again. A root has none left to release, since its own
// claims decided every neighbor, so its list is read once. No claim runs
// during the release, so a count reaches 0 once, on an undecided vertex
// none of whose earlier neighbors joined.
func MIS(g graph.Adj, o *Options) []bool {
	n := g.NumVertices()
	d := newPrioDAG(g, o, misPriority(o.Seed))
	defer d.free()
	in := make([]bool, n)
	d.live = frontier.AllSet(n)
	words := int64(n) + int64(len(d.live))
	o.Env.Alloc(words)
	defer o.Env.Free(words)

	lists := make([][]uint32, parallel.Workers()) // per worker, the round's newly out
	var out []uint32
	d.run(func(roots []uint32) {
		for w := range lists {
			lists[w] = lists[w][:0]
		}
		parallel.ForWorker(len(roots), 4, func(w, i int) {
			v := roots[i]
			frontier.Claim(d.live, v)
			in[v] = true
			for _, u := range d.adj(w, v) {
				if frontier.Claim(d.live, u) {
					lists[w] = append(lists[w], u)
				}
			}
		})
		out = parallel.FlattenUint32(out, lists)
		parallel.ForWorker(len(out), 4, func(w, i int) {
			d.release(w, out[i], d.adj(w, out[i]))
		})
	})
	return in
}

// misPriority hashes the id and ORs it into the low 20 bits, so keys are
// distinct below n = 2²⁰; above it, prioDAG breaks ties by id.
func misPriority(seed uint64) func(v uint32) uint64 {
	return func(v uint32) uint64 { return hash64(uint64(v), seed)<<20 | uint64(v) }
}
