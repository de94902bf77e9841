package algos

import (
	"math/bits"

	"sage/internal/graph"
	"sage/internal/parallel"
)

// BiconnResult carries the biconnectivity labeling (§4.3.2): for every
// non-root vertex v, Label[v] identifies the biconnected component of the
// tree edge {v, Parent[v]}; EdgeLabel extends this to arbitrary edges via
// the deeper endpoint, the Tarjan–Vishkin edge labeling.
type BiconnResult struct {
	Parent []uint32
	Level  []uint32
	Pre    []uint32
	Size   []uint32
	Low    []uint32
	High   []uint32
	Label  []uint32
}

// EdgeLabel returns the biconnected-component label of edge {u, v}.
func (r *BiconnResult) EdgeLabel(u, v uint32) uint32 {
	if r.Level[u] > r.Level[v] {
		return r.Label[u]
	}
	return r.Label[v]
}

// Biconnectivity computes biconnected components with the Tarjan–Vishkin
// reduction the paper uses (§4.3.2): a BFS spanning forest, preorder
// numbers / subtree sizes / low / high computed level-synchronously over
// the tree, then one connectivity call on the input graph with the
// non-qualifying edges removed through a graph filter — the filter is the
// practical optimization the paper highlights ("uses the graph filtering
// structure to optimize a call to connectivity that runs on the input
// graph, with a large subset of the edges removed"). O(m) expected work,
// O(dG log n + log³ n) depth whp, O(n + m/64) words in practice.
func Biconnectivity(g graph.Adj, o *Options) *BiconnResult {
	o.Checkpoint()
	n := g.NumVertices()

	// 1. Spanning forest roots: one BFS source per connected component.
	conn := Connectivity(g, o)
	minRoot := make([]uint32, n)
	parallel.Fill(minRoot, Infinity)
	parallel.For(int(n), 0, func(i int) {
		parallel.WriteMinUint32(&minRoot[conn[i]], uint32(i))
	})
	roots := parallel.Filter(minRoot, func(v uint32) bool { return v != Infinity })

	// 2. BFS forest with levels.
	parent, level, _ := BFSTree(g, o, roots)
	o.Env.Alloc(8 * int64(n))
	defer o.Env.Free(8 * int64(n))

	t := buildTree(parent, level, roots)

	// 3. Subtree sizes bottom-up, preorder numbers top-down.
	size := make([]uint32, n)
	t.bottomUp(o, func(v uint32) {
		s := uint32(1)
		for _, c := range t.children(v) {
			s += size[c]
		}
		size[v] = s
	})
	pre := make([]uint32, n)
	rootOffsets := make([]uint32, len(roots))
	parallel.For(len(roots), 0, func(i int) { rootOffsets[i] = size[roots[i]] })
	parallel.Scan(rootOffsets)
	parallel.For(len(roots), 0, func(i int) { pre[roots[i]] = rootOffsets[i] })
	t.topDown(o, func(v uint32) {
		off := pre[v] + 1
		for _, c := range t.children(v) {
			pre[c] = off
			off += size[c]
		}
	})

	// 4. low/high: extremes of preorder numbers reachable from each
	// subtree via non-tree edges, seeded per vertex and folded bottom-up.
	low := make([]uint32, n)
	high := make([]uint32, n)
	flat := graph.NewFlat(g)
	parallel.ForBlocks(int(n), 64, func(w, lo, hi int) {
		sc := o.scratch(w)
		for i := lo; i < hi; i++ {
			v := uint32(i)
			lo0, hi0 := pre[v], pre[v]
			nghs, _ := flat.Full(v, sc)
			for _, u := range nghs {
				if parent[v] != u && parent[u] != v {
					lo0 = min(lo0, pre[u])
					hi0 = max(hi0, pre[u])
				}
			}
			low[v], high[v] = lo0, hi0
		}
		flat.BillLists(o.Env, w, uint32(lo), uint32(hi))
	})
	t.bottomUp(o, func(v uint32) {
		for _, c := range t.children(v) {
			low[v] = min(low[v], low[c])
			high[v] = max(high[v], high[c])
		}
	})

	// 5. Filter the graph to the Tarjan–Vishkin auxiliary edges and run
	// connectivity on the filtered view.
	isAncestor := func(a, d uint32) bool {
		return pre[a] <= pre[d] && pre[d] < pre[a]+size[a]
	}
	keep := func(u, v uint32) bool {
		switch {
		case parent[v] == u: // tree edge, v is the child
			return low[v] < pre[u] || high[v] >= pre[u]+size[u]
		case parent[u] == v: // tree edge, u is the child
			return low[u] < pre[v] || high[u] >= pre[v]+size[v]
		default: // non-tree: keep only unrelated endpoints
			return !isAncestor(u, v) && !isAncestor(v, u)
		}
	}
	f := o.newFilter(g)
	defer o.Env.Free(f.SizeWords())
	f.FilterEdges(keep)
	label := Connectivity(f, o)

	return &BiconnResult{Parent: parent, Level: level, Pre: pre, Size: size, Low: low, High: high, Label: label}
}

// tree is the level-synchronous rooted-forest helper: children lists via a
// parallel sort by parent, level buckets for bottom-up/top-down sweeps.
type tree struct {
	parent    []uint32
	childIdx  []uint32 // vertices sorted by (parent, id), roots excluded
	childOff  []uint64 // per-vertex start into childIdx
	levelIdx  []uint32 // vertices with a level, sorted by level
	levelOff  []int    // per-level start into levelIdx
	maxLevel  uint32
	reachable []uint32
}

func buildTree(parent, level []uint32, roots []uint32) *tree {
	n := len(parent)
	t := &tree{parent: parent}
	// Children: all reachable non-root vertices sorted by parent.
	kids := parallel.PackIndex(n, func(i int) bool {
		return parent[i] != Infinity && parent[i] != uint32(i)
	})
	parallel.SortByKey(kids, bits.Len(uint(n)), func(v uint32) uint64 { return uint64(parent[v]) })
	t.childIdx = kids
	counts := make([]uint64, n+1)
	parallel.For(len(kids), 0, func(i int) {
		if i == 0 || parent[kids[i-1]] != parent[kids[i]] {
			j := i + 1
			for j < len(kids) && parent[kids[j]] == parent[kids[i]] {
				j++
			}
			counts[parent[kids[i]]] = uint64(j - i)
		}
	})
	parallel.Scan(counts)
	t.childOff = counts

	// Level buckets.
	reach := parallel.PackIndex(n, func(i int) bool { return level[i] != Infinity })
	t.maxLevel = parallel.ReduceMax(len(reach), 0, 0, func(i int) uint32 { return level[reach[i]] })
	parallel.SortByKey(reach, bits.Len32(t.maxLevel), func(v uint32) uint64 { return uint64(level[v]) })
	t.levelIdx = reach
	t.levelOff = make([]int, t.maxLevel+2)
	parallel.For(len(reach), 0, func(i int) {
		if i == 0 || level[reach[i-1]] != level[reach[i]] {
			t.levelOff[level[reach[i]]] = i
		}
	})
	t.levelOff[t.maxLevel+1] = len(reach)
	// BFS levels are contiguous, so every slot was written above; backfill
	// defensively in case of empty levels.
	for l := int(t.maxLevel); l >= 1; l-- {
		if t.levelOff[l] == 0 {
			t.levelOff[l] = t.levelOff[l+1]
		}
	}
	return t
}

// children returns the child list of v.
func (t *tree) children(v uint32) []uint32 {
	return t.childIdx[t.childOff[v]:t.childOff[v+1]]
}

// bottomUp applies fn to every reachable vertex, deepest level first, in
// parallel within a level.
func (t *tree) bottomUp(o *Options, fn func(v uint32)) {
	for l := int(t.maxLevel); l >= 0; l-- {
		o.Checkpoint()
		seg := t.levelIdx[t.levelOff[l]:t.levelOff[l+1]]
		parallel.For(len(seg), 16, func(i int) { fn(seg[i]) })
	}
}

// topDown applies fn level 0 downward.
func (t *tree) topDown(o *Options, fn func(v uint32)) {
	for l := 0; l <= int(t.maxLevel); l++ {
		o.Checkpoint()
		seg := t.levelIdx[t.levelOff[l]:t.levelOff[l+1]]
		parallel.For(len(seg), 16, func(i int) { fn(seg[i]) })
	}
}
