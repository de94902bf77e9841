package traverse

import (
	"sort"

	"sage/internal/frontier"
	"sage/internal/graph"
	"sage/internal/parallel"
	"sage/internal/psam"
)

// minChunkSize plays the role of the 4096 constant in Algorithm 1: chunk
// and group sizes are max(minChunkSize, davg). The paper's 4096 is tuned
// for billion-edge graphs where 8P·4096 words is negligible against n; at
// this repository's laptop scale a smaller constant keeps the pool's
// footprint well under n while preserving the amortization (a chunk always
// holds at least one full block, since minChunkSize >= davg is enforced by
// the max).
const minChunkSize = 512

// chunkPool recycles output chunks across edgeMapChunked calls with
// per-worker free lists (the "pool-based thread-local allocator" of
// Algorithm 1, line 3). The pool bounds live chunk memory by O(n) words.
// One chunkPool belongs to one run's Pools; concurrent runs never share
// free lists.
type chunkPool struct {
	lists [parallel.MaxWorkers]struct {
		free [][]uint32
		_    [40]byte
	}
}

// get returns an empty chunk with at least capacity cap.
func (p *chunkPool) get(worker, capacity int) []uint32 {
	l := &p.lists[worker]
	for i := len(l.free) - 1; i >= 0; i-- {
		c := l.free[i]
		if cap(c) >= capacity {
			l.free[i] = l.free[len(l.free)-1]
			l.free = l.free[:len(l.free)-1]
			return c[:0]
		}
	}
	return make([]uint32, 0, capacity)
}

// put returns a chunk to the pool.
func (p *chunkPool) put(worker int, c []uint32) {
	l := &p.lists[worker]
	if len(l.free) < 64 {
		l.free = append(l.free, c)
	}
}

// EdgeMapChunked is Sage's memory-efficient sparse traversal (§4.1.2,
// Algorithm 1). The frontier's edges are cut into blocks of the graph's
// underlying block size (davg for CSR, the compression block size for
// compressed graphs), blocks are assigned to ~8P groups, each group
// processes its blocks sequentially appending successful targets into
// pool-allocated chunks, and a final scan+copy aggregates the chunks into
// a flat output. Work O(Σ_{u∈U} deg(u)), depth O(log n), and — the point —
// at most O(n) words of small-memory (Theorem 4.1).
func EdgeMapChunked(g graph.Adj, env *psam.Env, vs *frontier.VertexSubset, ops Ops, opt Options) *frontier.VertexSubset {
	n := g.NumVertices()
	sp := vs.Sparse()
	if len(sp) == 0 {
		return frontier.Empty(n)
	}
	davg := int(graph.AvgDegree(g))
	gbSize := g.BlockSize() // compression block size, or 0 for CSR
	if gbSize == 0 {
		gbSize = davg
	}
	chunkSize := max(minChunkSize, davg)

	// Per-vertex block counts and the block table (Algorithm 1, line 12).
	nb := make([]int64, len(sp)+1)
	parallel.For(len(sp), 0, func(i int) {
		nb[i] = int64(int(g.Degree(sp[i]))+gbSize-1) / int64(gbSize)
	})
	totalBlocks := parallel.Scan(nb)
	nb[len(sp)] = totalBlocks
	if totalBlocks == 0 {
		return frontier.Empty(n)
	}
	blockVtx := make([]uint32, totalBlocks) // index into sp
	blockLo := make([]uint32, totalBlocks)  // start position within vertex
	blockDegs := make([]int64, totalBlocks+1)
	env.Alloc(3 * totalBlocks)
	defer env.Free(3 * totalBlocks)
	parallel.For(len(sp), 16, func(i int) {
		deg := int(g.Degree(sp[i]))
		base := nb[i]
		for b := 0; int64(b) < nb[i+1]-base; b++ {
			lo := b * gbSize
			blockVtx[base+int64(b)] = uint32(i)
			blockLo[base+int64(b)] = uint32(lo)
			blockDegs[base+int64(b)] = int64(min(gbSize, deg-lo))
		}
	})
	dU := parallel.Scan(blockDegs)
	blockDegs[totalBlocks] = dU

	// Group assignment (lines 14–18): static load balancing over ~8P
	// virtual threads, but never groups smaller than minGroupSize edges.
	p := parallel.Workers()
	groupSize := max(dU/int64(8*p)+1, int64(chunkSize))
	numGroups := int((dU + groupSize - 1) / groupSize)
	groupStart := make([]int64, numGroups+1)
	parallel.For(numGroups, 64, func(gi int) {
		target := int64(gi) * groupSize
		groupStart[gi] = int64(sort.Search(int(totalBlocks), func(b int) bool {
			return blockDegs[b+1] > target
		}))
	})
	groupStart[numGroups] = totalBlocks

	// Process groups (lines 20–23): each group is sequential; chunks are
	// fetched from the per-worker pool and stored in the group's vector.
	// Blocks align with the graph's decode granularity, so each Slice call
	// below decodes exactly one compression block into the worker scratch
	// (or aliases the CSR edge array with no copy at all).
	groupChunks := make([][][]uint32, numGroups)
	flat := graph.NewFlat(g)
	pools := poolsOf(opt)
	parallel.ForWorker(numGroups, 1, func(w, gi int) {
		var vec [][]uint32
		var cur []uint32
		var scanned int64
		for b := groupStart[gi]; b < groupStart[gi+1]; b++ {
			bDeg := int(blockDegs[b+1] - blockDegs[b])
			if cur == nil || len(cur)+bDeg > cap(cur) {
				if cur != nil {
					vec = append(vec, cur)
				}
				// Charge the requested size, not the pooled chunk's
				// capacity, so the peak does not depend on pool history.
				cur = pools.chunks.get(w, chunkSize)
				env.Alloc(int64(chunkSize))
			}
			u := sp[blockVtx[b]]
			lo := blockLo[b]
			hi := lo + uint32(bDeg)
			env.GraphRead(w, g.EdgeAddr(u)+int64(lo), g.ScanCost(u, lo, hi))
			nghs, ws := flat.Slice(u, lo, hi, pools.Scratch(w))
			if ws == nil {
				for _, d := range nghs {
					if ops.Cond(d) && ops.UpdateAtomic(u, d, 1) {
						cur = append(cur, d)
					}
				}
			} else {
				for j, d := range nghs {
					if ops.Cond(d) && ops.UpdateAtomic(u, d, ws[j]) {
						cur = append(cur, d)
					}
				}
			}
			scanned += int64(bDeg)
		}
		if cur != nil {
			vec = append(vec, cur)
		}
		env.StateRead(w, scanned)
		groupChunks[gi] = vec
	})

	// Aggregate (lines 24–30): flatten all chunks with a scan + parallel
	// copy, then release the chunks.
	var all [][]uint32
	for _, vec := range groupChunks {
		all = append(all, vec...)
	}
	res := parallel.FlattenUint32(nil, all)
	env.StateWrite(0, int64(len(res)))
	env.Free(int64(len(all) * chunkSize))
	parallel.ForWorker(len(all), 4, func(w, i int) { pools.chunks.put(w, all[i]) })
	if opt.Dedup {
		res = dedup(n, env, res)
	}
	env.Alloc(int64(len(res)))
	return frontier.FromSparse(n, res)
}
