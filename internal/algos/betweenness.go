package algos

import (
	"sage/internal/frontier"
	"sage/internal/graph"
	"sage/internal/parallel"
	"sage/internal/traverse"
)

// Betweenness computes single-source betweenness centrality contributions
// from src (Brandes' dependency accumulation, §4.3.1): a forward BFS
// phase counts shortest paths σ per vertex level by level, and a backward
// phase accumulates dependencies δ(v) = Σ_{w: succ(v)} σ(v)/σ(w)·(1+δ(w)).
// Following Ligra's BC, vertices are marked visited (their condition bit
// cleared) in a vertex map *after* each edgeMap round, so σ accumulates
// across all same-round contributors; the first contributor (σ was zero)
// claims the vertex for the output frontier. O(m) work, O(dG log n) depth,
// O(n) words of small-memory.
func Betweenness(g graph.Adj, o *Options, src uint32) []float64 {
	n := g.NumVertices()
	sigma := make([]uint64, n) // float64 bits
	level := make([]uint32, n)
	// unvisited is edgeMap's condition. Updates leave it alone, so every
	// same-round contributor adds to σ; each round's output frontier is
	// cleared from it after the round.
	unvisited := frontier.AllSet(n)
	o.Env.Alloc(2*int64(n) + int64(len(unvisited)))
	defer o.Env.Free(2*int64(n) + int64(len(unvisited)))

	parallel.StoreFloat64(&sigma[src], 1)
	frontier.Clear(unvisited, src)
	parallel.Fill(level, Infinity)
	level[src] = 0

	fwd := traverse.Ops{
		Update: func(s, d uint32, _ int32) bool {
			old := parallel.LoadFloat64(&sigma[d])
			parallel.StoreFloat64(&sigma[d], old+parallel.LoadFloat64(&sigma[s]))
			return old == 0
		},
		UpdateAtomic: func(s, d uint32, _ int32) bool {
			return parallel.AddFloat64(&sigma[d], parallel.LoadFloat64(&sigma[s])) == 0
		},
		Cond: unvisited,
	}

	var rounds [][]uint32
	fr := frontier.Single(n, src)
	round := uint32(0)
	for !fr.IsEmpty() {
		rounds = append(rounds, append([]uint32(nil), fr.Sparse()...))
		fr = o.edgeMap(g, fr, fwd, nil)
		round++
		fr.ForEach(func(v uint32) {
			frontier.Claim(unvisited, v) // ids sharing a word race
			level[v] = round
		})
	}

	// Backward phase: pull-based accumulation level by level from the
	// deepest frontier; each vertex owns its δ so no atomics are needed.
	delta := make([]float64, n)
	o.Env.Alloc(int64(n))
	defer o.Env.Free(int64(n))
	flat := graph.NewFlat(g)
	for l := len(rounds) - 2; l >= 0; l-- {
		o.Checkpoint()
		lvl := uint32(l)
		ids := rounds[l]
		parallel.ForWorker(len(ids), 8, func(w, i int) {
			v := ids[i]
			deg := g.Degree(v)
			sv := parallel.LoadFloat64(&sigma[v])
			var acc float64
			nghs, _ := flat.Read(o.Env, w, v, 0, deg, o.scratch(w))
			for _, u := range nghs {
				if level[u] == lvl+1 {
					acc += sv / parallel.LoadFloat64(&sigma[u]) * (1 + delta[u])
				}
			}
			o.Env.StateRead(w, int64(deg))
			delta[v] = acc
		})
	}
	delta[src] = 0
	return delta
}
