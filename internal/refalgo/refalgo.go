// Package refalgo provides simple, obviously-correct sequential
// implementations of every problem in the suite. The test packages use
// them as oracles for the parallel Sage algorithms; none of them is
// performance-tuned and none charges the PSAM environment.
package refalgo

import (
	"container/heap"
	"math"
	"sort"

	"sage/internal/graph"
)

// BFSDistances returns hop distances from src (^uint32(0) if unreachable).
func BFSDistances(g *graph.Graph, src uint32) []uint32 {
	n := g.NumVertices()
	const inf = ^uint32(0)
	dist := make([]uint32, n)
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	queue := []uint32{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if dist[u] == inf {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// pqItem is a priority-queue entry for Dijkstra-style searches.
type pqItem struct {
	v    uint32
	prio int64
}

type pq []pqItem

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].prio < q[j].prio }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// Dijkstra returns weighted shortest-path distances from src
// (math.MaxInt64 if unreachable). Weights must be non-negative.
func Dijkstra(g *graph.Graph, src uint32) []int64 {
	n := g.NumVertices()
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = math.MaxInt64
	}
	dist[src] = 0
	q := &pq{{v: src, prio: 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if it.prio > dist[it.v] {
			continue
		}
		nghs := g.Neighbors(it.v)
		ws := g.NeighborWeights(it.v)
		for i, u := range nghs {
			w := int64(1)
			if ws != nil {
				w = int64(ws[i])
			}
			if nd := it.prio + w; nd < dist[u] {
				dist[u] = nd
				heap.Push(q, pqItem{v: u, prio: nd})
			}
		}
	}
	return dist
}

// BellmanFord returns shortest-path distances allowing negative weights;
// vertices affected by reachable negative cycles get math.MinInt64.
func BellmanFord(g *graph.Graph, src uint32) []int64 {
	n := int(g.NumVertices())
	const inf = math.MaxInt64
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	relax := func() bool {
		changed := false
		for v := uint32(0); v < uint32(n); v++ {
			if dist[v] == inf {
				continue
			}
			nghs := g.Neighbors(v)
			ws := g.NeighborWeights(v)
			for i, u := range nghs {
				w := int64(1)
				if ws != nil {
					w = int64(ws[i])
				}
				if dist[v]+w < dist[u] {
					dist[u] = dist[v] + w
					changed = true
				}
			}
		}
		return changed
	}
	for i := 0; i < n-1; i++ {
		if !relax() {
			return dist
		}
	}
	if relax() {
		// Mark negative-cycle-affected vertices: anything that still
		// improves, and everything reachable from it.
		affected := make([]bool, n)
		for pass := 0; pass < n; pass++ {
			changed := false
			for v := uint32(0); v < uint32(n); v++ {
				if dist[v] == inf {
					continue
				}
				nghs := g.Neighbors(v)
				ws := g.NeighborWeights(v)
				for i, u := range nghs {
					w := int64(1)
					if ws != nil {
						w = int64(ws[i])
					}
					if affected[v] || dist[v]+w < dist[u] {
						if !affected[u] {
							affected[u] = true
							changed = true
						}
					}
				}
			}
			if !changed {
				break
			}
		}
		for v := range affected {
			if affected[v] {
				dist[v] = math.MinInt64
			}
		}
	}
	return dist
}

// WidestPath returns the max-min path width from src (MinInt64 if
// unreachable, MaxInt64 for src itself).
func WidestPath(g *graph.Graph, src uint32) []int64 {
	n := g.NumVertices()
	width := make([]int64, n)
	for i := range width {
		width[i] = math.MinInt64
	}
	width[src] = math.MaxInt64
	q := &pq{{v: src, prio: -math.MaxInt64}} // max-heap via negation
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		w := -it.prio
		if w < width[it.v] {
			continue
		}
		nghs := g.Neighbors(it.v)
		ws := g.NeighborWeights(it.v)
		for i, u := range nghs {
			ew := int64(1)
			if ws != nil {
				ew = int64(ws[i])
			}
			nw := min(width[it.v], ew)
			if nw > width[u] {
				width[u] = nw
				heap.Push(q, pqItem{v: u, prio: -nw})
			}
		}
	}
	return width
}

// Betweenness returns single-source Brandes dependencies from src.
func Betweenness(g *graph.Graph, src uint32) []float64 {
	n := g.NumVertices()
	sigma := make([]float64, n)
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	var order []uint32
	sigma[src] = 1
	dist[src] = 0
	queue := []uint32{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, u := range g.Neighbors(v) {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
			if dist[u] == dist[v]+1 {
				sigma[u] += sigma[v]
			}
		}
	}
	delta := make([]float64, n)
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		for _, u := range g.Neighbors(v) {
			if dist[u] == dist[v]+1 {
				delta[v] += sigma[v] / sigma[u] * (1 + delta[u])
			}
		}
	}
	delta[src] = 0
	return delta
}

// Components returns connected-component labels normalized to the minimum
// member vertex.
func Components(g *graph.Graph, _ uint64) []uint32 {
	n := g.NumVertices()
	parent := make([]uint32, n)
	for i := range parent {
		parent[i] = uint32(i)
	}
	var find func(x uint32) uint32
	find = func(x uint32) uint32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for v := uint32(0); v < n; v++ {
		for _, u := range g.Neighbors(v) {
			a, b := find(v), find(u)
			if a != b {
				if a < b {
					parent[b] = a
				} else {
					parent[a] = b
				}
			}
		}
	}
	labels := make([]uint32, n)
	for v := uint32(0); v < n; v++ {
		labels[v] = find(v)
	}
	return labels
}

// SameComponents reports whether two labelings induce the same partition.
func SameComponents(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := map[uint32]uint32{}
	rev := map[uint32]uint32{}
	for i := range a {
		if x, ok := fwd[a[i]]; ok && x != b[i] {
			return false
		}
		if x, ok := rev[b[i]]; ok && x != a[i] {
			return false
		}
		fwd[a[i]] = b[i]
		rev[b[i]] = a[i]
	}
	return true
}

// Triangles counts triangles by oriented merge intersection.
func Triangles(g *graph.Graph) int64 {
	n := g.NumVertices()
	rankLess := func(a, b uint32) bool {
		da, db := g.Degree(a), g.Degree(b)
		if da != db {
			return da < db
		}
		return a < b
	}
	out := make([][]uint32, n)
	for v := uint32(0); v < n; v++ {
		for _, u := range g.Neighbors(v) {
			if rankLess(v, u) {
				out[v] = append(out[v], u)
			}
		}
		sort.Slice(out[v], func(i, j int) bool { return out[v][i] < out[v][j] })
	}
	var count int64
	for v := uint32(0); v < n; v++ {
		for _, u := range out[v] {
			count += intersectCount(out[v], out[u])
		}
	}
	return count
}

func intersectCount(a, b []uint32) int64 {
	var c int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

// Coreness returns exact coreness values by sequential peeling.
func Coreness(g *graph.Graph) []uint32 {
	n := int(g.NumVertices())
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		deg[v] = int(g.Degree(uint32(v)))
	}
	order := make([]uint32, n)
	for i := range order {
		order[i] = uint32(i)
	}
	sort.Slice(order, func(i, j int) bool { return deg[order[i]] < deg[order[j]] })
	pos := make([]int, n)
	for i, v := range order {
		pos[v] = i
	}
	core := make([]uint32, n)
	k := 0
	removed := make([]bool, n)
	for i := 0; i < n; i++ {
		// Re-sort lazily: find the min-degree unremoved vertex.
		best, bestDeg := -1, math.MaxInt
		for v := 0; v < n; v++ {
			if !removed[v] && deg[v] < bestDeg {
				best, bestDeg = v, deg[v]
			}
		}
		v := uint32(best)
		if bestDeg > k {
			k = bestDeg
		}
		core[v] = uint32(k)
		removed[best] = true
		for _, u := range g.Neighbors(v) {
			if !removed[u] {
				deg[u]--
			}
		}
	}
	_ = pos
	return core
}

// GreedyMIS returns the serial greedy maximal independent set over order,
// a permutation of the vertices: each vertex in turn joins unless a
// neighbour has joined.
func GreedyMIS(g *graph.Graph, order []uint32) []bool {
	in := make([]bool, g.NumVertices())
	for _, v := range order {
		in[v] = true
		for _, u := range g.Neighbors(v) {
			if in[u] && u != v {
				in[v] = false
				break
			}
		}
	}
	return in
}

// GreedyColoring returns the serial greedy coloring over order, a
// permutation of the vertices: each vertex in turn takes the smallest
// color that no colored neighbour has.
func GreedyColoring(g *graph.Graph, order []uint32) []uint32 {
	color := make([]uint32, g.NumVertices())
	colored := make([]bool, g.NumVertices())
	for _, v := range order {
		used := map[uint32]bool{}
		for _, u := range g.Neighbors(v) {
			if colored[u] {
				used[color[u]] = true
			}
		}
		for used[color[v]] {
			color[v]++
		}
		colored[v] = true
	}
	return color
}

// PageRank runs sequential power iteration (pull form) to convergence.
func PageRank(g *graph.Graph, eps float64, maxIters int) []float64 {
	n := int(g.NumVertices())
	prev := make([]float64, n)
	next := make([]float64, n)
	for i := range prev {
		prev[i] = 1 / float64(n)
	}
	const d = 0.85
	for it := 0; it < maxIters; it++ {
		var diff float64
		for v := 0; v < n; v++ {
			var acc float64
			for _, u := range g.Neighbors(uint32(v)) {
				acc += prev[u] / float64(g.Degree(u))
			}
			next[v] = (1-d)/float64(n) + d*acc
			diff += math.Abs(next[v] - prev[v])
		}
		prev, next = next, prev
		if diff < eps {
			break
		}
	}
	return prev
}

// GreedySetCover returns the classic greedy cover for the bipartite
// instance (sets [0, numSets), elements above).
func GreedySetCover(g *graph.Graph, numSets uint32) []uint32 {
	n := g.NumVertices()
	covered := make([]bool, n)
	used := make([]bool, numSets)
	var cover []uint32
	for {
		best, bestGain := uint32(0), 0
		for s := uint32(0); s < numSets; s++ {
			if used[s] {
				continue
			}
			gain := 0
			for _, e := range g.Neighbors(s) {
				if !covered[e] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = s, gain
			}
		}
		if bestGain == 0 {
			return cover
		}
		used[best] = true
		cover = append(cover, best)
		for _, e := range g.Neighbors(best) {
			covered[e] = true
		}
	}
}

// MaxDensity returns the best density over the exact sequential peeling
// order (Charikar's 2-approximation certificate): the density of the best
// suffix when repeatedly removing a minimum-degree vertex.
func MaxDensity(g *graph.Graph) float64 {
	n := int(g.NumVertices())
	deg := make([]int64, n)
	for v := 0; v < n; v++ {
		deg[v] = int64(g.Degree(uint32(v)))
	}
	removed := make([]bool, n)
	liveArcs := int64(g.NumEdges())
	liveN := int64(n)
	best := 0.0
	for liveN > 0 {
		best = math.Max(best, float64(liveArcs)/2/float64(liveN))
		minV, minD := -1, int64(math.MaxInt64)
		for v := 0; v < n; v++ {
			if !removed[v] && deg[v] < minD {
				minV, minD = v, deg[v]
			}
		}
		removed[minV] = true
		for _, u := range g.Neighbors(uint32(minV)) {
			if !removed[u] {
				deg[u]--
				liveArcs -= 2
			}
		}
		liveN--
	}
	return best
}
