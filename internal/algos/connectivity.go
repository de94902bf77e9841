package algos

import (
	"sync/atomic"

	"sage/internal/graph"
	"sage/internal/parallel"
)

// maxLDDRestarts bounds the Appendix C.2 restart loop: an LDD whose
// inter-cluster edge count exceeds the O(n) small-memory budget is re-run
// with a fresh seed (it succeeds with constant probability).
const maxLDDRestarts = 8

// interClusterBudgetFactor is the c in the "at most c·n inter-cluster
// edges" restart rule.
const interClusterBudgetFactor = 4

// Connectivity computes connected-component labels with the work-efficient
// LDD-contraction algorithm (§4.3.2, Theorem C.2): decompose with β = 0.2,
// build the (deduplicated) inter-cluster graph in small-memory, recurse on
// it, and map the labels back down. O(m) expected work, O(log³ n) depth
// whp, O(n) words of small-memory (with restarts per Appendix C.2).
func Connectivity(g graph.Adj, o *Options) []uint32 {
	return connectivityRec(g, o, o.Seed, 0)
}

func connectivityRec(g graph.Adj, o *Options, seed uint64, depth int) []uint32 {
	o.Checkpoint() // contraction-level boundary
	n := g.NumVertices()
	if g.NumEdges() == 0 {
		return parallel.Tabulate(int(n), func(i int) uint32 { return uint32(i) })
	}
	ldd, inter := lddWithBudget(g, o, seed)
	cluster := ldd.Cluster
	if inter == 0 {
		return cluster
	}
	// Contract: relabel cluster centers densely, collect deduplicated
	// inter-cluster edges into small-memory, and recurse.
	cg, centerOf, denseID := contract(g, o, cluster, inter, nil)
	sub := connectivityRec(cg, o, seed+0x1000193, depth+1)
	o.Env.Free(cg.SizeWords())
	// Map down: label of v = center whose dense id's component label is
	// sub[...]; translate back to an original-vertex label.
	labels := make([]uint32, n)
	parallel.For(int(n), 0, func(i int) {
		labels[i] = centerOf[sub[denseID[cluster[i]]]]
	})
	return labels
}

// lddWithBudget runs LDD, restarting until the inter-cluster edge count
// fits the O(n) budget (Appendix C.2).
func lddWithBudget(g graph.Adj, o *Options, seed uint64) (*LDDResult, int64) {
	n := int64(g.NumVertices())
	budget := interClusterBudgetFactor * n
	var ldd *LDDResult
	var inter int64
	for attempt := 0; attempt < maxLDDRestarts; attempt++ {
		ldd = LDD(g, o, o.LDDBeta, seed+uint64(attempt)*0x9e3779b9)
		inter = CountInterCluster(g, o, ldd.Cluster)
		if inter <= budget {
			return ldd, inter
		}
	}
	// All restarts exceeded the budget (adversarially dense decompositions
	// are possible but vanishingly rare); proceed with the last one.
	return ldd, inter
}

// contract builds the graph over cluster centers. It returns the
// contracted graph, billed at its SizeWords (the caller frees them once
// it is done with it), the mapping dense id -> center vertex, and center
// vertex -> dense id. If witness is non-nil, it records for every
// contracted undirected edge {cu, cv} one original arc (u, v) inducing it
// (used by spanning forest and the spanner).
func contract(g graph.Adj, o *Options, cluster []uint32, inter int64, witness *parallel.HashMap64) (*graph.Graph, []uint32, []uint32) {
	n := int(g.NumVertices())
	// Dense ids for centers. Marking is idempotent but concurrent —
	// many vertices share a center — so the flag writes must be atomic
	// for the Go memory model (the loop join orders the plain reads
	// after them); a load-first spares the cache line when already set.
	isCenter := make([]uint32, n)
	parallel.For(n, 0, func(i int) {
		p := &isCenter[cluster[i]]
		if atomic.LoadUint32(p) == 0 {
			atomic.StoreUint32(p, 1)
		}
	})
	centers := parallel.PackIndex(n, func(i int) bool { return isCenter[i] != 0 })
	denseID := make([]uint32, n)
	parallel.For(len(centers), 0, func(i int) { denseID[centers[i]] = uint32(i) })

	// Deduplicate inter-cluster edges with a concurrent hash set sized by
	// the counted arcs; collect canonical pairs.
	set := parallel.NewHashSet64(int(inter) + 1)
	o.Env.Alloc(2 * (inter + 1))
	defer o.Env.Free(2 * (inter + 1))
	interClusterArcs(g, o, cluster, func(w int, v, u uint32) {
		key := edgeKey(denseID[cluster[u]], denseID[cluster[v]])
		if set.Insert(key) && witness != nil {
			witness.InsertMin(key, edgeKey(v, u))
		}
		o.Env.StateWrite(w, 1)
	})
	keys := set.Elements()
	edges := make([]graph.Edge, len(keys))
	parallel.For(len(keys), 0, func(i int) {
		a, b := decodeEdgeKey(keys[i])
		edges[i] = graph.Edge{U: a, V: b}
	})
	cg := graph.FromEdges(uint32(len(centers)), edges, graph.BuildOpts{Symmetrize: true})
	o.Env.Alloc(cg.SizeWords())
	return cg, centers, denseID
}

// SpanningForest returns the edges of a spanning forest (§4.3.2,
// Corollary C.3): the LDD growth trees plus, recursively, a forest of the
// contracted inter-cluster graph whose edges are mapped back to witness
// arcs of the original graph.
func SpanningForest(g graph.Adj, o *Options) []graph.Edge {
	return spanningForestRec(g, o, o.Seed)
}

func spanningForestRec(g graph.Adj, o *Options, seed uint64) []graph.Edge {
	o.Checkpoint() // contraction-level boundary
	if g.NumEdges() == 0 {
		return nil
	}
	ldd, inter := lddWithBudget(g, o, seed)
	n := int(g.NumVertices())
	// Tree edges of the LDD growth: (parent[v], v) for non-center v.
	treeIdx := parallel.PackIndex(n, func(i int) bool {
		p := ldd.Parent[i]
		return p != Infinity && p != uint32(i)
	})
	forest := make([]graph.Edge, len(treeIdx), len(treeIdx)+64)
	parallel.For(len(treeIdx), 0, func(i int) {
		v := treeIdx[i]
		forest[i] = graph.Edge{U: ldd.Parent[v], V: v}
	})
	if inter == 0 {
		return forest
	}
	witness := parallel.NewHashMap64(int(inter) + 1)
	cg, _, _ := contract(g, o, ldd.Cluster, inter, witness)
	subForest := spanningForestRec(cg, o, seed+0x1000193)
	o.Env.Free(cg.SizeWords())
	for _, e := range subForest {
		o.Checkpoint()
		// Translate the contracted edge back through its witness arc
		// (edgeKey is canonical in the endpoint order).
		if w, okW := witness.Get(edgeKey(e.U, e.V)); okW {
			u, v := decodeEdgeKey(w)
			forest = append(forest, graph.Edge{U: u, V: v})
		}
	}
	return forest
}
