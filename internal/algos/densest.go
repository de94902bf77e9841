package algos

import (
	"sage/internal/frontier"
	"sage/internal/graph"
	"sage/internal/parallel"
)

// DensestResult reports the approximate densest subgraph: its density
// |E(S)|/|S|, the member flags, and the number of peeling rounds.
type DensestResult struct {
	Density float64
	InSub   []bool
	Rounds  int
}

// ApproxDensestSubgraph computes a 2(1+ε)-approximate densest subgraph
// with Bahmani-style parallel peeling (§4.3.4, with ε = 0.001 matching
// Charikar's 2-approximation in the paper's runs): repeatedly remove all
// vertices of induced degree at most 2(1+ε)·ρ(current), aggregating degree
// losses with the same histogram primitive as k-core (dense variant
// included); the densest prefix over all rounds is returned. O(m) work,
// O(log² n / ε) depth, O(n) words of small-memory.
func ApproxDensestSubgraph(g graph.Adj, o *Options) *DensestResult {
	n := int64(g.NumVertices())
	eps := o.Eps
	if eps <= 0 {
		eps = 0.05
	}
	deg := parallel.Tabulate(int(n), func(i int) uint32 { return g.Degree(uint32(i)) })
	live := frontier.AllSet(uint32(n))
	removedRound := make([]int32, n)
	parallel.Fill(removedRound, -1)
	words := 2*n + int64(len(live))
	o.Env.Alloc(words)
	defer o.Env.Free(words)

	liveN := n
	liveArcs := int64(g.NumEdges())
	bestDensity := 0.0
	bestRound := int32(-1) // vertices removed at round <= bestRound are outside
	round := int32(0)
	nc := newNeighborCounter(g, o, live)
	defer nc.free()

	for liveN > 0 {
		o.Checkpoint()
		density := float64(liveArcs) / 2 / float64(liveN)
		if density > bestDensity {
			bestDensity = density
			bestRound = round - 1
		}
		threshold := 2 * (1 + eps) * density
		peel := parallel.PackIndex(int(n), func(i int) bool {
			return frontier.Has(live, uint32(i)) && float64(deg[i]) <= threshold
		})
		if len(peel) == 0 {
			// Cannot happen for positive thresholds (the average degree is
			// 2·density), but guard against float corner cases.
			break
		}
		parallel.For(len(peel), 0, func(i int) {
			frontier.Claim(live, peel[i])
			removedRound[peel[i]] = round
		})
		counts := nc.count(peel)
		lost := parallel.ReduceSum(len(counts), 0, func(i int) int64 {
			deg[counts[i].Key] -= counts[i].Count
			return int64(counts[i].Count)
		})
		// Arcs removed: arcs between peeled and surviving vertices count
		// twice (both directions), arcs inside the peeled set too; total
		// arcs lost = Σ deg(peeled) measured before removal.
		peeledDeg := parallel.ReduceSum(len(peel), 0, func(i int) int64 {
			return int64(deg[peel[i]])
		})
		liveArcs -= peeledDeg + lost
		liveN -= int64(len(peel))
		round++
	}
	inSub := parallel.Tabulate(int(n), func(i int) bool {
		return removedRound[i] < 0 || removedRound[i] > bestRound
	})
	return &DensestResult{Density: bestDensity, InSub: inSub, Rounds: int(round)}
}
