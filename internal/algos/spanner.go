package algos

import (
	"math"

	"sage/internal/graph"
	"sage/internal/parallel"
)

// Spanner computes an O(k)-spanner (§4.3.1) with the Miller–Peng–Vladu–Xu
// construction: run LDD with β = log n / (2k), keep every cluster's BFS
// tree edge, and keep one edge between each pair of adjacent clusters.
// The result has expected size O(n^(1+1/k)) and preserves distances within
// O(k). With the paper's default k = ⌈log₂ n⌉ the spanner has O(n) edges.
// O(m) expected work, O(k log n) depth whp.
func Spanner(g graph.Adj, o *Options, k int) []graph.Edge {
	o.Checkpoint()
	n := g.NumVertices()
	if k <= 0 {
		k = int(math.Ceil(math.Log2(float64(max(n, 2)))))
	}
	beta := math.Log(float64(max(n, 2))) / (2 * float64(k))
	ldd := LDD(g, o, beta, o.Seed)

	// Tree edges.
	treeIdx := parallel.PackIndex(int(n), func(i int) bool {
		p := ldd.Parent[i]
		return p != Infinity && p != uint32(i)
	})
	out := make([]graph.Edge, len(treeIdx))
	parallel.For(len(treeIdx), 0, func(i int) {
		v := treeIdx[i]
		out[i] = graph.Edge{U: ldd.Parent[v], V: v}
	})

	// One witness edge per adjacent cluster pair, selected with a
	// concurrent hash map keyed by the canonical cluster pair.
	inter := CountInterCluster(g, o, ldd.Cluster)
	if inter == 0 {
		return out
	}
	witness := parallel.NewHashMap64(int(inter) + 1)
	o.Env.Alloc(4 * (inter + 1))
	defer o.Env.Free(4 * (inter + 1))
	interClusterArcs(g, o, ldd.Cluster, func(w int, v, u uint32) {
		witness.InsertMin(edgeKey(ldd.Cluster[u], ldd.Cluster[v]), edgeKey(v, u))
		o.Env.StateWrite(w, 1)
	})
	witness.ForEach(func(_, val uint64) {
		u, v := decodeEdgeKey(val)
		out = append(out, graph.Edge{U: u, V: v})
	})
	return out
}
