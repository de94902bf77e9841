package algos

import (
	"sort"

	"sage/internal/frontier"
	"sage/internal/gfilter"
	"sage/internal/graph"
	"sage/internal/parallel"
)

// TriangleResult carries the count and the two work measures of
// Appendix D.1 / Table 4: IntersectionWork is the number of merge steps
// over directed wedges (fixed by the graph and ordering), and TotalWork
// is the number of edges physically decoded from filter blocks — the
// quantity that grows with the filter block size on compressed inputs.
type TriangleResult struct {
	Count            int64
	IntersectionWork int64
	TotalWork        int64
}

// orientByDegree builds the run's graph filter and packs away every edge
// that does not point from lower to higher rank (degree, then id) — the
// orientation of §4.3.4, done through the filter instead of by rewriting
// the graph. rank is n words of caller-owned scratch: it holds each
// vertex's (degree, id) key while the pack runs, so the predicate is two
// loads and a compare rather than four Degree calls per edge, and is the
// caller's again afterwards.
func orientByDegree(g graph.Adj, o *Options, rank []uint64) EdgeFilter {
	parallel.For(len(rank), 0, func(v int) {
		rank[v] = uint64(g.Degree(uint32(v)))<<32 | uint64(v)
	})
	f := o.newFilter(g)
	f.FilterEdges(func(u, v uint32) bool { return rank[u] < rank[v] })
	return f
}

// sweepQuantum is the oriented-sweep work handed out as one scheduling
// block, in units of 1 + deg⁺(u): a vertex and its out-edges, each of
// which is one intersection. An intersection takes 0.1–0.6 µs on the
// RMAT and power-law families, so a block is a few hundred microseconds:
// long enough to amortise the block claim and the cancellation poll,
// short enough that a cancelled run stops promptly and that the
// (n + m/2)/sweepQuantum blocks of any input large enough to matter
// outnumber the workers many times.
const sweepQuantum = 1024

// TriangleCount counts triangles with the oriented intersection algorithm
// of Shun–Tangwongsan as adapted to Sage (§4.3.4): edges are oriented
// from lower to higher rank (degree, then id) *through the graph filter*
// instead of by rewriting the graph, and each directed edge (u, v)
// contributes |N⁺(u) ∩ N⁺(v)|, counted by probing v's live filter bits
// against a bitmap of N⁺(u). O(m^{3/2}) work, O(n + m/64) words of
// small-memory: the filter, one n-word array that holds the rank keys
// during orientation and the sweep's block boundaries after it, and one
// ⌈n/64⌉-word mark bitmap per worker.
func TriangleCount(g graph.Adj, o *Options) *TriangleResult {
	o.Checkpoint()
	n := int(g.NumVertices())
	words := make([]uint64, n)
	o.Env.Alloc(int64(n))
	defer o.Env.Free(int64(n))
	f := orientByDegree(g, o, words)
	defer o.Env.Free(f.SizeWords())
	o.Checkpoint()
	res := sweepTriangles(f, o, words)
	o.Checkpoint()
	return res
}

// sweepTriangles counts |N⁺(u) ∩ N⁺(v)| over every edge (u, v) of the
// oriented filter f. The sweep is cut into blocks of about sweepQuantum
// out-edges on the prefix sum of 1 + deg⁺(u), held in the n words of
// start: filter metadata alone, so scheduling reads no edges. (Measured
// against weighting a vertex by deg⁺(u)² or by its wedge count
// Σ_{v∈N⁺(u)} (1 + deg⁺(v)), the plain edge count tracks the sweep's real
// per-vertex cost at least as well on the RMAT and power-law families,
// and the wedge count would cost a second pass over the oriented edges.)
// Each worker marks N⁺(u) in its own bitmap once per u and clears it after
// u's edges, so each intersection is one probe of N⁺(v). On a cancelled
// context it returns early with a partial count the caller must not use.
func sweepTriangles(f EdgeFilter, o *Options, start []uint64) *TriangleResult {
	n := len(start)
	parallel.For(n, 0, func(u int) { start[u] = 1 + uint64(f.Degree(uint32(u))) })
	nBlocks := int(parallel.Scan(start)/sweepQuantum) + 1
	words := frontier.Words(uint32(n))
	marks := make([]uint64, parallel.Workers()*words)
	o.Env.Alloc(int64(len(marks)))
	defer o.Env.Free(int64(len(marks)))
	var shards [parallel.MaxWorkers]struct {
		count  int64
		stats  gfilter.IntersectStats
		listU  []uint32
		common []uint32
		_      [56]byte
	}
	parallel.ForBlocks(nBlocks, 1, func(w, b, _ int) {
		// Workers poll without panicking; the Checkpoint after the sweep
		// keeps a partial count from escaping.
		if o.cancelled() {
			return
		}
		sh := &shards[w]
		mark := marks[w*words : (w+1)*words]
		lo := sort.Search(n, func(u int) bool { return start[u] >= uint64(b)*sweepQuantum })
		hi := sort.Search(n, func(u int) bool { return start[u] >= uint64(b+1)*sweepQuantum })
		for u := uint32(lo); u < uint32(hi); u++ {
			if f.Degree(u) == 0 {
				continue
			}
			sh.listU = f.ActiveList(w, u, sh.listU, &sh.stats)
			frontier.Mark(mark, sh.listU)
			for _, v := range sh.listU {
				sh.common = f.IntersectMarked(w, v, sh.listU, mark, sh.common[:0], &sh.stats)
				sh.count += int64(len(sh.common))
			}
			frontier.Unmark(mark, sh.listU)
		}
	})
	res := &TriangleResult{}
	for i := range shards {
		res.Count += shards[i].count
		res.IntersectionWork += shards[i].stats.MergeSteps
		res.TotalWork += shards[i].stats.DecodedEdges
	}
	return res
}
