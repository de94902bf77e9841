package algos

import (
	"math"
	"math/bits"

	"sage/internal/frontier"
	"sage/internal/graph"
	"sage/internal/parallel"
	"sage/internal/traverse"
)

// LDDResult carries a low-diameter decomposition: cluster labels (the id
// of the cluster's center vertex), the BFS-tree parent of every vertex
// within its cluster (parent[center] = center), and the number of growth
// rounds.
type LDDResult struct {
	Cluster []uint32
	Parent  []uint32
	Rounds  int
}

// LDD computes a (O(β), O(log n / β)) low-diameter decomposition with the
// Miller–Peng–Xu exponential-shift algorithm (§4.3.2): each vertex draws a
// shift δ_v ~ Exp(β); vertex v starts a cluster at round ⌊max δ − δ_v⌋
// unless already claimed; clusters grow level-synchronously with CAS
// claims (the practical tie-break GBBS uses). O(m) expected work,
// O(log² n) depth whp, O(n) words of small-memory.
func LDD(g graph.Adj, o *Options, beta float64, seed uint64) *LDDResult {
	n := g.NumVertices()
	if beta <= 0 {
		beta = 0.2
	}
	shifts := make([]float64, n)
	parallel.For(int(n), 0, func(i int) {
		u := float64(hash64(uint64(i), seed)>>11) / float64(1<<53)
		if u <= 0 {
			u = math.SmallestNonzeroFloat64
		}
		shifts[i] = -math.Log(u) / beta
	})
	maxShift := parallel.Reduce(int(n), 0, 0.0, func(i int) float64 { return shifts[i] },
		func(a, b float64) float64 { return math.Max(a, b) })
	// start[v]: the round at which v may open its own cluster.
	start := make([]uint32, n)
	parallel.For(int(n), 0, func(i int) {
		start[i] = uint32(maxShift - shifts[i])
	})
	// Order vertices by start round (radix sort; ties stay in id order).
	order := parallel.Tabulate(int(n), func(i int) uint32 { return uint32(i) })
	parallel.SortByKey(order, bits.Len32(uint32(maxShift)), func(v uint32) uint64 { return uint64(start[v]) })

	cluster := make([]uint32, n)
	parent := make([]uint32, n)
	parallel.Fill(cluster, Infinity)
	parallel.Fill(parent, Infinity)
	// unclaimed is edgeMap's condition: centres and cluster growth both
	// claim a vertex by clearing its bit, so cluster[d] and parent[d] have
	// one writer.
	unclaimed := frontier.AllSet(n)
	o.Env.Alloc(4*int64(n) + int64(len(unclaimed)))
	defer o.Env.Free(4*int64(n) + int64(len(unclaimed)))

	ops := traverse.Ops{
		Update: func(s, d uint32, _ int32) bool {
			frontier.Clear(unclaimed, d)
			cluster[d] = cluster[s]
			parent[d] = s
			return true
		},
		UpdateAtomic: func(s, d uint32, _ int32) bool {
			if frontier.Claim(unclaimed, d) {
				cluster[d] = cluster[s]
				parent[d] = s
				return true
			}
			return false
		},
		Cond: unclaimed,
	}

	fr := frontier.Empty(n)
	next := 0 // next index into order to admit as centers
	round := 0
	for {
		// Admit new centers whose start round has arrived and that are
		// still unclaimed.
		admit := next
		for admit < int(n) && start[order[admit]] <= uint32(round) {
			admit++
		}
		if admit > next {
			// Claim first (side-effecting CAS), then filter on the pure
			// outcome: parallel.Filter evaluates its predicate twice.
			cand := order[next:admit]
			claimed := make([]bool, len(cand))
			parallel.For(len(cand), 0, func(i int) {
				claimed[i] = frontier.Claim(unclaimed, cand[i])
			})
			centers := parallel.FilterIndex(cand, func(i int, _ uint32) bool {
				return claimed[i]
			})
			parallel.For(len(centers), 0, func(i int) {
				v := centers[i]
				cluster[v], parent[v] = v, v
			})
			if len(centers) > 0 {
				merged := append(append([]uint32{}, fr.Sparse()...), centers...)
				fr = frontier.FromSparse(n, merged)
			}
			next = admit
		}
		if fr.IsEmpty() && next >= int(n) {
			break
		}
		fr = o.edgeMap(g, fr, ops, nil)
		round++
	}
	return &LDDResult{Cluster: cluster, Parent: parent, Rounds: round}
}

// CountInterCluster returns the number of arcs (u, v) whose endpoints lie
// in different clusters. Connectivity's Appendix C.2 restart rule checks
// this against its O(n) budget.
func CountInterCluster(g graph.Adj, o *Options, cluster []uint32) int64 {
	var shards [parallel.MaxWorkers]struct {
		c int64
		_ [56]byte
	}
	interClusterArcs(g, o, cluster, func(w int, _, _ uint32) { shards[w].c++ })
	var total int64
	for i := range shards {
		total += shards[i].c
	}
	return total
}

// interClusterArcs calls arc(w, v, u) on worker w for every arc (v, u)
// whose endpoints lie in different clusters: one pass over every list,
// billed with the cluster label read per edge.
func interClusterArcs(g graph.Adj, o *Options, cluster []uint32, arc func(w int, v, u uint32)) {
	flat := graph.NewFlat(g)
	parallel.ForBlocks(int(g.NumVertices()), 64, func(w, lo, hi int) {
		sc := o.scratch(w)
		var edges int64
		for i := lo; i < hi; i++ {
			v, cv := uint32(i), cluster[i]
			nghs, _ := flat.Full(v, sc)
			for _, u := range nghs {
				if cluster[u] != cv {
					arc(w, v, u)
				}
			}
			edges += int64(len(nghs))
		}
		flat.BillLists(o.Env, w, uint32(lo), uint32(hi))
		o.Env.StateRead(w, edges)
	})
}
