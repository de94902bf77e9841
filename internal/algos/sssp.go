package algos

import (
	"sync/atomic"

	"sage/internal/bucket"
	"sage/internal/frontier"
	"sage/internal/graph"
	"sage/internal/parallel"
	"sage/internal/traverse"
)

// WBFS is integral-weight SSSP via the Julienne bucketing approach (§4.3.1):
// vertices are bucketed by tentative distance; popping the minimum bucket
// settles its vertices (weights are >= 1), whose out-edges are relaxed with
// priority-writes; updated vertices move buckets in bulk. O(m) expected
// work, O(dG log n) depth whp, O(n) words of small-memory (the bucket
// structure is semi-eager, Appendix B).
//
// The edgeMap condition is a settle bitmap, ⌈n/64⌉ more words of DRAM: a
// popped bucket's vertices are claimed out of it before their edges are
// relaxed, so the pull scan reads no settled vertex's in-edges. That is
// exact: a relaxation from bucket d offers d + w > d ≥ dist[v] to every
// settled v, so each skipped Update would have returned false.
func WBFS(g graph.Adj, o *Options, src uint32) []uint32 {
	n := g.NumVertices()
	dist := make([]uint32, n)
	parallel.Fill(dist, Infinity)
	dist[src] = 0
	o.Env.Alloc(2 * int64(n))
	defer o.Env.Free(2 * int64(n))

	prio := make([]uint32, n)
	parallel.Fill(prio, bucket.Null)
	prio[src] = 0
	b := bucket.New(prio, bucket.Increasing)
	var prios []uint32 // the round's bucket moves, reused
	unsettled := frontier.AllSet(n)
	o.Env.Alloc(int64(len(unsettled)))
	defer o.Env.Free(int64(len(unsettled)))

	for {
		d, settled, ok := b.NextBucket()
		if !ok {
			break
		}
		parallel.For(len(settled), 0, func(i int) { frontier.Claim(unsettled, settled[i]) })
		fr := frontier.FromSparse(n, settled)
		ops := traverse.Ops{
			Update: func(_, v uint32, w int32) bool {
				nd := d + uint32(w)
				if nd < dist[v] {
					dist[v] = nd
					return true
				}
				return false
			},
			UpdateAtomic: func(_, v uint32, w int32) bool {
				return parallel.WriteMinUint32(&dist[v], d+uint32(w))
			},
			Cond: unsettled,
		}
		out := o.edgeMap(g, fr, ops, func(t *traverse.Options) { t.Dedup = true })
		ids := out.Sparse()
		prios = parallel.Resize(prios, len(ids))
		parallel.For(len(ids), 0, func(i int) {
			prios[i] = atomic.LoadUint32(&dist[ids[i]])
		})
		b.UpdateBatch(ids, prios)
	}
	return dist
}

// BellmanFord is general-weight SSSP (§4.3.1): rounds of relaxations over
// the frontier of improved vertices until a fixpoint, O(dG·m) work and
// O(dG log n) depth for graphs without negative cycles. Vertices on or
// reachable from a negative-weight cycle reachable from src are reported
// with distance NegInf.
func BellmanFord(g graph.Adj, o *Options, src uint32) []int64 {
	n := g.NumVertices()
	dist := make([]int64, n)
	parallel.Fill(dist, InfDist)
	dist[src] = 0
	o.Env.Alloc(2 * int64(n))
	defer o.Env.Free(2 * int64(n))
	fr := frontier.Single(n, src)
	// Unlike BFS, a vertex's distance is read as a *source* while it is
	// concurrently written as a *destination* (the standard Bellman-Ford
	// relaxation race), so even the dense update must be atomic.
	relax := func(s, v uint32, w int32) bool {
		nd := atomic.LoadInt64(&dist[s]) + int64(w)
		return parallel.WriteMinInt64(&dist[v], nd)
	}
	ops := traverse.Ops{
		Update:       relax,
		UpdateAtomic: relax,
		Cond:         traverse.CondTrue,
	}
	rounds := 0
	for !fr.IsEmpty() {
		if rounds >= int(n) {
			// Negative cycle: everything still improving, and everything
			// reachable from it, diverges.
			markNegInf(g, o, fr, dist)
			break
		}
		fr = o.edgeMap(g, fr, ops, func(t *traverse.Options) { t.Dedup = true })
		rounds++
	}
	return dist
}

// InfDist and NegInf are the unreachable / divergent markers of
// BellmanFord.
const (
	InfDist = int64(1) << 62
	NegInf  = -(int64(1) << 62)
)

// markNegInf floods NegInf from the still-improving frontier. edgeMap's
// condition is the complement of the NegInf set: a vertex is claimed, and
// set to NegInf, by clearing its bit.
func markNegInf(g graph.Adj, o *Options, fr *frontier.VertexSubset, dist []int64) {
	n := g.NumVertices()
	finite := frontier.AllSet(n)
	o.Env.Alloc(int64(len(finite)))
	defer o.Env.Free(int64(len(finite)))
	fr.ForEach(func(v uint32) {
		if frontier.Claim(finite, v) { // ids sharing a word race
			dist[v] = NegInf
		}
	})
	ops := traverse.Ops{
		Update: func(_, v uint32, _ int32) bool {
			frontier.Clear(finite, v)
			dist[v] = NegInf
			return true
		},
		UpdateAtomic: func(_, v uint32, _ int32) bool {
			if frontier.Claim(finite, v) {
				dist[v] = NegInf
				return true
			}
			return false
		},
		Cond: finite,
	}
	cur := frontier.FromSparse(n, append([]uint32(nil), fr.Sparse()...))
	for !cur.IsEmpty() {
		cur = o.edgeMap(g, cur, ops, nil)
	}
}

// WidestPath computes single-source widest paths (§4.3.1): W[v] is the
// maximum over src-v paths of the minimum edge weight on the path
// (Bellman-Ford-style max-min relaxation, the paper's first variant).
func WidestPath(g graph.Adj, o *Options, src uint32) []int64 {
	n := g.NumVertices()
	width := make([]int64, n)
	parallel.Fill(width, NegInf)
	width[src] = InfDist
	o.Env.Alloc(int64(n))
	defer o.Env.Free(int64(n))
	fr := frontier.Single(n, src)
	// As in BellmanFord, sources are read while destinations are written,
	// so both update variants are atomic.
	relax := func(s, v uint32, w int32) bool {
		nw := min(atomic.LoadInt64(&width[s]), int64(w))
		return parallel.WriteMaxInt64(&width[v], nw)
	}
	ops := traverse.Ops{
		Update:       relax,
		UpdateAtomic: relax,
		Cond:         traverse.CondTrue,
	}
	for !fr.IsEmpty() {
		fr = o.edgeMap(g, fr, ops, func(t *traverse.Options) { t.Dedup = true })
	}
	return width
}

// WidestPathBucketed is the paper's second widest-path variant, built on
// decreasing buckets (the wBFS analogue): popping the maximum-width bucket
// settles its vertices because widths only decrease along paths.
//
// As in WBFS, the edgeMap condition is a settle bitmap (⌈n/64⌉ more words)
// that each popped bucket is claimed out of. That is exact: a relaxation
// from the popped bucket offers min(width[s], w) ≤ the popped width ≤
// width[v] to every settled v, so each skipped Update would have returned
// false.
func WidestPathBucketed(g graph.Adj, o *Options, src uint32) []int64 {
	n := g.NumVertices()
	width := make([]uint32, n) // width+1; 0 = unreached
	width[src] = Infinity      // effectively +inf
	o.Env.Alloc(2 * int64(n))
	defer o.Env.Free(2 * int64(n))

	prio := make([]uint32, n)
	parallel.Fill(prio, bucket.Null)
	// Null is also ^uint32(0); encode the source's "infinite" width as the
	// largest non-Null priority.
	prio[src] = Infinity - 1
	b := bucket.New(prio, bucket.Decreasing)
	var prios []uint32 // the round's bucket moves, reused
	unsettled := frontier.AllSet(n)
	o.Env.Alloc(int64(len(unsettled)))
	defer o.Env.Free(int64(len(unsettled)))

	for {
		_, settled, ok := b.NextBucket()
		if !ok {
			break
		}
		parallel.For(len(settled), 0, func(i int) { frontier.Claim(unsettled, settled[i]) })
		fr := frontier.FromSparse(n, settled)
		ops := traverse.Ops{
			Update: func(s, v uint32, w int32) bool {
				nw := min(width[s], uint32(w))
				if nw > width[v] {
					width[v] = nw
					return true
				}
				return false
			},
			UpdateAtomic: func(s, v uint32, w int32) bool {
				nw := min(atomic.LoadUint32(&width[s]), uint32(w))
				return parallel.WriteMaxUint32(&width[v], nw)
			},
			Cond: unsettled,
		}
		out := o.edgeMap(g, fr, ops, func(t *traverse.Options) { t.Dedup = true })
		ids := out.Sparse()
		prios = parallel.Resize(prios, len(ids))
		parallel.For(len(ids), 0, func(i int) {
			w := atomic.LoadUint32(&width[ids[i]])
			if w >= Infinity-1 {
				w = Infinity - 1
			}
			prios[i] = w
		})
		b.UpdateBatch(ids, prios)
	}
	out := make([]int64, n)
	parallel.For(int(n), 0, func(i int) {
		switch {
		case width[i] == 0:
			out[i] = NegInf
		case uint32(i) == src:
			out[i] = InfDist
		default:
			out[i] = int64(width[i])
		}
	})
	return out
}
