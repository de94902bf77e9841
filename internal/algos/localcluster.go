package algos

import (
	"sort"

	"sage/internal/frontier"
	"sage/internal/graph"
	"sage/internal/parallel"
)

// LocalClusterResult is a low-conductance community around a seed.
type LocalClusterResult struct {
	// Members of the cluster.
	Members []uint32
	// Conductance of the returned cut: cut(S) / min(vol(S), vol(V\S)).
	Conductance float64
}

// LocalCluster finds a low-conductance cluster around the seed with the
// classic PPR sweep: compute the personalized PageRank vector, sort
// vertices by degree-normalized rank, and return the prefix minimizing
// conductance. The paper lists local clustering among the problems that
// "naturally fit in the regular PSAM model" (§3.2): the state is the two
// O(n) PPR vectors plus the sweep's O(n) order — the graph is only read.
// maxSize bounds the sweep prefix (0 means n).
func LocalCluster(g graph.Adj, o *Options, seed uint32, damping float64, maxSize int) *LocalClusterResult {
	o.Checkpoint()
	n := int(g.NumVertices())
	if maxSize <= 0 || maxSize > n {
		maxSize = n
	}
	pr, _ := PersonalizedPageRank(g, o, seed, damping, 1e-10, 100)

	// Sweep order: degree-normalized rank, positive entries only.
	order := parallel.PackIndex(n, func(i int) bool {
		return pr[i] > 0 && g.Degree(uint32(i)) > 0
	})
	sort.Slice(order, func(a, b int) bool {
		va := pr[order[a]] / float64(g.Degree(order[a]))
		vb := pr[order[b]] / float64(g.Degree(order[b]))
		if va != vb {
			return va > vb
		}
		return order[a] < order[b]
	})
	if len(order) > maxSize {
		order = order[:maxSize]
	}
	if len(order) == 0 {
		return &LocalClusterResult{Members: []uint32{seed}, Conductance: 1}
	}

	totalVol := int64(g.NumEdges())
	// The sweep is serial: it owns the member bitmap's words.
	inS := make([]uint64, frontier.Words(uint32(n)))
	o.Env.Alloc(int64(len(inS)))
	defer o.Env.Free(int64(len(inS)))
	var vol, cut int64
	bestIdx, bestCond := 0, 2.0
	flat := graph.NewFlat(g)
	for i, v := range order {
		o.Checkpoint()
		nghs, _ := flat.Read(o.Env, 0, v, 0, g.Degree(v), o.scratch(0))
		deg := int64(len(nghs))
		// Adding v: edges to current members stop being cut; the rest
		// start.
		var toS int64
		for _, u := range nghs {
			toS += int64(inS[u>>6] >> (u & 63) & 1)
		}
		inS[v>>6] |= 1 << (v & 63)
		vol += deg
		cut += deg - 2*toS
		denom := min(vol, totalVol-vol)
		if denom <= 0 {
			continue
		}
		cond := float64(cut) / float64(denom)
		if cond < bestCond {
			bestCond = cond
			bestIdx = i
		}
	}
	return &LocalClusterResult{
		Members:     append([]uint32(nil), order[:bestIdx+1]...),
		Conductance: bestCond,
	}
}
