package algos

import (
	"sage/internal/frontier"
	"sage/internal/gfilter"
	"sage/internal/graph"
	"sage/internal/parallel"
)

// KCliqueCount counts k-cliques (k >= 3). The paper's applicability
// discussion (§3.2) singles this problem out as a natural PSAM extension
// of the filtering technique: edges are oriented from lower to higher
// rank through the graph filter exactly as in triangle counting, and
// cliques are enumerated by recursively intersecting out-neighborhoods
// within the resulting DAG. Mutable state is the filter, O(k·Δ) words of
// per-worker candidate buffers and one ⌈n/64⌉-word bitmap per worker
// that marks the current candidates — no NVRAM writes.
// KCliqueCount(g, o, 3) equals TriangleCount(g, o).Count.
func KCliqueCount(g graph.Adj, o *Options, k int) int64 {
	o.Checkpoint()
	if k < 3 {
		panic("algos: KCliqueCount requires k >= 3")
	}
	n := int(g.NumVertices())
	rank := make([]uint64, n)
	o.Env.Alloc(int64(n))
	f := orientByDegree(g, o, rank)
	o.Env.Free(int64(n))
	defer o.Env.Free(f.SizeWords())

	words := frontier.Words(uint32(n))
	p := parallel.Workers()
	marks := make([]uint64, p*words)
	o.Env.Alloc(int64(len(marks)))
	defer o.Env.Free(int64(len(marks)))
	shards := make([]cliqueShard, p)
	for i := range shards {
		shards[i].levels = make([][]uint32, k)
		shards[i].mark = marks[i*words : (i+1)*words]
	}
	parallel.ForWorker(n, 1, func(w, i int) {
		sh := &shards[w]
		v := uint32(i)
		if f.Degree(v) == 0 {
			return
		}
		sh.levels[0] = f.ActiveList(w, v, sh.levels[0], &sh.stats)
		frontier.Mark(sh.mark, sh.levels[0])
		sh.count += sh.extend(o, f, w, 1, k-1)
		frontier.Unmark(sh.mark, sh.levels[0])
	})
	// The workers bail out early on cancellation (they cannot panic off
	// their own goroutines); surface it here before totals are trusted.
	o.Checkpoint()
	var total int64
	for i := range shards {
		total += shards[i].count
	}
	return total
}

// cliqueShard is the per-worker recursion state: levels[d] holds the
// candidate set (vertices completing the current partial clique) at
// recursion depth d, and mark holds the bits of the deepest level in use.
type cliqueShard struct {
	count  int64
	stats  gfilter.IntersectStats
	levels [][]uint32
	mark   []uint64
	_      [56]byte
}

// extend counts cliques completed by choosing `remaining` (at least two)
// more vertices from levels[depth-1], whose bits mark holds on entry and
// on return, intersecting with each candidate's out-neighborhood in turn.
// A descent moves the marks to the next level and back, O(|cands| +
// |next|): no more than merging cands against N⁺(u) would cost.
func (sh *cliqueShard) extend(o *Options, f EdgeFilter, worker, depth, remaining int) int64 {
	cands := sh.levels[depth-1]
	var total int64
	for _, u := range cands {
		// Workers poll without panicking; KCliqueCount checkpoints after
		// the sweep, so a partial count never escapes.
		if o.cancelled() {
			return total
		}
		if f.Degree(u) == 0 {
			continue
		}
		next := f.IntersectMarked(worker, u, cands, sh.mark, sh.levels[depth][:0], &sh.stats)
		sh.levels[depth] = next
		switch {
		case remaining == 2:
			total += int64(len(next))
		case len(next) >= remaining-1:
			frontier.Unmark(sh.mark, cands)
			frontier.Mark(sh.mark, next)
			total += sh.extend(o, f, worker, depth+1, remaining-1)
			frontier.Unmark(sh.mark, next)
			frontier.Mark(sh.mark, cands)
		}
	}
	return total
}
