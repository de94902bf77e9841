// Package galois implements a vertex-centric Memory-Mode baseline
// standing in for the Galois NVRAM codes of Gill et al. [43], which the
// paper compares against in Figure 1 and §5.5. The real Galois system is
// closed over a large C++ runtime; what the comparison exercises is its
// *configuration* — an uncompressed vertex-centric engine whose graph
// accesses run through Memory Mode's DRAM cache rather than through
// semi-asymmetric App-Direct discipline. This package reproduces that
// configuration: push-based frontier processing with O(frontier-edge)
// scratch, no compression, no chunked traversal, and all graph accesses
// charged through the Memory-Mode cache simulator.
//
// It covers the problems [43] evaluates: BFS, SSSP (Bellman-Ford),
// betweenness, connectivity (label propagation), PageRank, and single-k
// k-core.
package galois

import (
	"math"
	"sync/atomic"

	"sage/internal/frontier"
	"sage/internal/graph"
	"sage/internal/parallel"
	"sage/internal/psam"
	"sage/internal/traverse"
)

// Engine runs the vertex-centric baseline over a graph in Memory Mode.
type Engine struct {
	G   *graph.Graph
	Env *psam.Env
}

// New builds an engine; cacheWords is the simulated DRAM cache capacity
// (the machine's DRAM in Memory Mode).
func New(g *graph.Graph, cacheWords int64) *Engine {
	return &Engine{G: g, Env: psam.NewEnv(psam.MemoryMode).WithCache(cacheWords)}
}

// opts is the fixed vertex-centric configuration: plain sparse push with
// direction optimization (Galois' pull/push scheduling), no chunking.
func (e *Engine) opts() traverse.Options {
	return traverse.Options{Strategy: traverse.Sparse}
}

// BFS returns BFS parents from src.
func (e *Engine) BFS(src uint32) []uint32 {
	n := e.G.NumVertices()
	const inf = ^uint32(0)
	parents := make([]uint32, n)
	parallel.Fill(parents, inf)
	parents[src] = src
	unvisited := frontier.AllSet(n)
	frontier.Clear(unvisited, src)
	fr := frontier.Single(n, src)
	ops := traverse.Ops{
		Update: func(s, d uint32, _ int32) bool {
			frontier.Clear(unvisited, d)
			parents[d] = s
			return true
		},
		UpdateAtomic: func(s, d uint32, _ int32) bool {
			if frontier.Claim(unvisited, d) {
				parents[d] = s
				return true
			}
			return false
		},
		Cond: unvisited,
	}
	for !fr.IsEmpty() {
		fr = traverse.EdgeMap(e.G, e.Env, fr, ops, e.opts())
	}
	return parents
}

// SSSP returns Bellman-Ford distances from src.
func (e *Engine) SSSP(src uint32) []int64 {
	n := e.G.NumVertices()
	const inf = int64(math.MaxInt64 / 2)
	dist := make([]int64, n)
	parallel.Fill(dist, inf)
	dist[src] = 0
	fr := frontier.Single(n, src)
	relax := func(s, v uint32, w int32) bool {
		return parallel.WriteMinInt64(&dist[v], atomic.LoadInt64(&dist[s])+int64(w))
	}
	ops := traverse.Ops{Update: relax, UpdateAtomic: relax, Cond: traverse.CondTrue}
	for rounds := uint32(0); !fr.IsEmpty() && rounds < n; rounds++ {
		opt := e.opts()
		opt.Dedup = true
		fr = traverse.EdgeMap(e.G, e.Env, fr, ops, opt)
	}
	return dist
}

// Connectivity runs label propagation to a fixpoint — the classic
// vertex-centric formulation (GridGraph/FlashGraph use the same), which
// performs O(m·d) work in the worst case versus Sage's O(m).
func (e *Engine) Connectivity() []uint32 {
	n := e.G.NumVertices()
	labels := make([]uint32, n)
	parallel.For(int(n), 0, func(i int) { labels[i] = uint32(i) })
	fr := frontier.All(n)
	relax := func(s, d uint32, _ int32) bool {
		return parallel.WriteMinUint32(&labels[d], atomic.LoadUint32(&labels[s]))
	}
	ops := traverse.Ops{Update: relax, UpdateAtomic: relax, Cond: traverse.CondTrue}
	for !fr.IsEmpty() {
		opt := e.opts()
		opt.Dedup = true
		fr = traverse.EdgeMap(e.G, e.Env, fr, ops, opt)
	}
	return labels
}

// PageRank runs iters pull-based iterations and returns the ranks.
func (e *Engine) PageRank(iters int) []float64 {
	n := int(e.G.NumVertices())
	prev := make([]float64, n)
	next := make([]float64, n)
	parallel.Fill(prev, 1/float64(n))
	const d = 0.85
	flat := graph.NewFlat(e.G)
	for it := 0; it < iters; it++ {
		contrib := make([]float64, n)
		parallel.For(n, 0, func(i int) {
			if deg := e.G.Degree(uint32(i)); deg > 0 {
				contrib[i] = prev[i] / float64(deg)
			}
		})
		parallel.ForBlocks(n, 64, func(w, lo, hi int) {
			var edges int64
			for i := lo; i < hi; i++ {
				v := uint32(i)
				var acc float64
				nghs, _ := flat.Full(v, nil)
				for _, u := range nghs {
					acc += contrib[u]
				}
				edges += int64(len(nghs))
				next[i] = (1-d)/float64(n) + d*acc
			}
			flat.BillLists(e.Env, w, uint32(lo), uint32(hi))
			e.Env.StateRead(w, edges)
		})
		prev, next = next, prev
	}
	return prev
}

// KCoreSingleK finds the k-core for one given k (what [43] implements:
// "an implementation of k-core that computes a single k-core, for a given
// value of k"), by repeatedly removing vertices of degree < k.
func (e *Engine) KCoreSingleK(k uint32) []bool {
	n := int(e.G.NumVertices())
	deg := make([]uint32, n)
	parallel.For(n, 0, func(i int) { deg[i] = e.G.Degree(uint32(i)) })
	alive := make([]bool, n)
	parallel.Fill(alive, true)
	flat := graph.NewFlat(e.G)
	for {
		peel := parallel.PackIndex(n, func(i int) bool { return alive[i] && deg[i] < k })
		if len(peel) == 0 {
			break
		}
		parallel.For(len(peel), 0, func(i int) { alive[peel[i]] = false })
		parallel.ForWorker(len(peel), 4, func(w, i int) {
			nghs, _ := flat.Read(e.Env, w, peel[i], 0, e.G.Degree(peel[i]), nil)
			for _, u := range nghs {
				if alive[u] {
					// Benign decrement race is avoided with an atomic.
					for {
						old := atomic.LoadUint32(&deg[u])
						if old == 0 || atomic.CompareAndSwapUint32(&deg[u], old, old-1) {
							break
						}
					}
				}
			}
		})
	}
	return alive
}

// Betweenness runs single-source Brandes dependencies from src (the BC
// workload of Figure 1), reusing the frontier rounds like the Sage code
// but under the vertex-centric configuration.
func (e *Engine) Betweenness(src uint32) []float64 {
	n := e.G.NumVertices()
	sigma := make([]uint64, n)
	level := make([]uint32, n)
	unvisited := frontier.AllSet(n)
	parallel.Fill(level, ^uint32(0))
	parallel.StoreFloat64(&sigma[src], 1)
	frontier.Clear(unvisited, src)
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
		fr = traverse.EdgeMap(e.G, e.Env, fr, fwd, e.opts())
		round++
		fr.ForEach(func(v uint32) {
			frontier.Claim(unvisited, v) // ids sharing a word race
			level[v] = round
		})
	}
	delta := make([]float64, n)
	flat := graph.NewFlat(e.G)
	for l := len(rounds) - 2; l >= 0; l-- {
		ids := rounds[l]
		lvl := uint32(l)
		parallel.ForWorker(len(ids), 8, func(w, i int) {
			v := ids[i]
			sv := parallel.LoadFloat64(&sigma[v])
			var acc float64
			nghs, _ := flat.Read(e.Env, w, v, 0, e.G.Degree(v), nil)
			for _, u := range nghs {
				if level[u] == lvl+1 {
					acc += sv / parallel.LoadFloat64(&sigma[u]) * (1 + delta[u])
				}
			}
			delta[v] = acc
		})
	}
	delta[src] = 0
	return delta
}
