package traverse

import (
	"sort"

	"sage/internal/frontier"
	"sage/internal/graph"
	"sage/internal/parallel"
	"sage/internal/psam"
)

// blockedBlockSize is the edge-block granularity of edgeMapBlocked.
const blockedBlockSize = 4096

// edgeMapBlocked is the GBBS traversal (§4.1.1): the frontier's edge space
// is cut into fixed-size blocks processed independently; each block writes
// its successes compactly at its own offset of an intermediate array of
// size Σ deg, so the number of cache lines written is proportional to the
// output, but the *allocation* is still O(Σ deg) — the memory inefficiency
// Table 5 measures.
func edgeMapBlocked(g graph.Adj, env *psam.Env, vs *frontier.VertexSubset, ops Ops, opt Options, outDeg int64) *frontier.VertexSubset {
	n := g.NumVertices()
	sp := vs.Sparse()
	offs := make([]int64, len(sp)+1)
	parallel.For(len(sp), 0, func(i int) { offs[i] = int64(g.Degree(sp[i])) })
	parallel.Scan(offs)
	offs[len(sp)] = outDeg

	out := make([]uint32, outDeg)
	env.Alloc(outDeg + int64(len(sp)))
	defer env.Free(outDeg + int64(len(sp)))

	nBlocks := int((outDeg + blockedBlockSize - 1) / blockedBlockSize)
	if nBlocks == 0 {
		return frontier.Empty(n)
	}
	counts := make([]int, nBlocks)
	flat := graph.NewFlat(g)
	pools := poolsOf(opt)
	parallel.ForWorker(nBlocks, 1, func(w, b int) {
		lo := int64(b) * blockedBlockSize
		hi := min(lo+blockedBlockSize, outDeg)
		// First vertex whose edge range intersects [lo, hi).
		vi := sort.Search(len(sp), func(i int) bool { return offs[i+1] > lo })
		wr := lo
		var scanned int64
		for e := lo; e < hi && vi < len(sp); {
			u := sp[vi]
			vLo := uint32(e - offs[vi])
			vHi := uint32(min(offs[vi+1], hi) - offs[vi])
			env.GraphRead(w, g.EdgeAddr(u)+int64(vLo), g.ScanCost(u, vLo, vHi))
			nghs, ws := flat.Slice(u, vLo, vHi, pools.Scratch(w))
			if ws == nil {
				for _, d := range nghs {
					if ops.Cond(d) && ops.UpdateAtomic(u, d, 1) {
						out[wr] = d
						wr++
					}
				}
			} else {
				for j, d := range nghs {
					if ops.Cond(d) && ops.UpdateAtomic(u, d, ws[j]) {
						out[wr] = d
						wr++
					}
				}
			}
			scanned += int64(vHi - vLo)
			e = offs[vi] + int64(vHi)
			if e >= offs[vi+1] {
				vi++
			}
		}
		env.StateRead(w, scanned)
		env.StateWrite(w, wr-lo)
		counts[b] = int(wr - lo)
	})
	total := parallel.Scan(counts)
	res := make([]uint32, total)
	parallel.For(nBlocks, 1, func(b int) {
		lo := int64(b) * blockedBlockSize
		k := 0
		if b+1 < nBlocks {
			k = counts[b+1] - counts[b]
		} else {
			k = total - counts[b]
		}
		copy(res[counts[b]:counts[b]+k], out[lo:lo+int64(k)])
	})
	if opt.Dedup {
		res = dedup(n, env, res)
	}
	env.Alloc(int64(len(res)))
	return frontier.FromSparse(n, res)
}
