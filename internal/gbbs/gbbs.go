// Package gbbs implements the GBBS-style baselines the paper compares
// against (Figures 1 and 7): the same graph algorithms, but with the
// shared-memory design decisions of Dhulipala et al. [37] that predate the
// semi-asymmetric discipline — in particular, batch edge deletions are
// realized by *mutating* the graph's adjacency arrays in place. On DRAM
// that is fine; on NVRAM every pack becomes expensive ω-weighted writes,
// which is exactly the effect Table 1's "GBBS Work" column formalizes as
// Θ(ωW).
//
// The baseline plugs into the algos package through the EdgeFilter
// interface: MutFilter implements the same packing operations as the Sage
// graph filter but charges its writes to the *graph* account, so the
// identical algorithm code runs under both designs and the measured cost
// difference isolates the design choice.
package gbbs

import (
	"sync/atomic"

	"sage/internal/algos"
	"sage/internal/frontier"
	"sage/internal/gfilter"
	"sage/internal/graph"
	"sage/internal/parallel"
	"sage/internal/psam"
	"sage/internal/traverse"
)

// MutFilter is a mutable copy of a CSR graph's adjacency arrays that
// supports in-place packing. It implements algos.EdgeFilter. All reads
// and writes of the edge data are charged to the PSAM graph account —
// under AppDirect or libvmmalloc configurations these are NVRAM accesses.
type MutFilter struct {
	env     *psam.Env
	n       uint32
	offsets []uint64
	edges   []uint32 // mutable: each vertex's live edges packed to the front
	degs    []uint32
	live    atomic.Int64
	base    graph.Adj // for addresses
}

// NewMutFilter copies g's adjacency into a mutable image. The copy
// itself models GBBS operating on its in-memory graph, so it is not
// charged (the graph was already resident); only subsequent mutations are.
// Compressed graphs are decompressed into CSR form first — GBBS cannot
// pack a compressed graph in place without re-compression, which is one of
// the costs the Sage design eliminates (§1).
func NewMutFilter(g graph.Adj, _ int, env *psam.Env) algos.EdgeFilter {
	n := g.NumVertices()
	f := &MutFilter{env: env, n: n, base: g}
	f.offsets = make([]uint64, n+1)
	f.degs = make([]uint32, n)
	parallel.For(int(n), 0, func(i int) {
		f.degs[i] = g.Degree(uint32(i))
		f.offsets[i] = uint64(f.degs[i])
	})
	total := parallel.Scan(f.offsets[:n+1])
	f.offsets[n] = total
	f.edges = make([]uint32, total)
	var pool graph.ScratchPool
	parallel.ForWorker(int(n), 16, func(w, i int) {
		nghs, _ := g.Slice(uint32(i), 0, f.degs[i], pool.Get(w))
		copy(f.edges[f.offsets[i]:], nghs)
	})
	f.live.Store(int64(total))
	return f
}

// NumVertices implements graph.Adj.
func (f *MutFilter) NumVertices() uint32 { return f.n }

// NumEdges implements graph.Adj.
func (f *MutFilter) NumEdges() uint64 { return uint64(f.live.Load()) }

// Degree implements graph.Adj.
func (f *MutFilter) Degree(v uint32) uint32 { return f.degs[v] }

// Weighted implements graph.Adj.
func (f *MutFilter) Weighted() bool { return false }

// BlockSize implements graph.Adj.
func (f *MutFilter) BlockSize() int { return 0 }

// EdgeAddr implements graph.Adj: the mutable image occupies the same
// simulated graph region as the original.
//
//sage:hotpath
func (f *MutFilter) EdgeAddr(v uint32) int64 { return f.base.EdgeAddr(v) }

// ScanCost implements graph.Adj.
func (f *MutFilter) ScanCost(_ uint32, lo, hi uint32) int64 { return int64(hi - lo) }

// Slice implements graph.Adj: each vertex's live edges sit packed flat at
// the front of its CSR segment, so the slice aliases the mutable image.
//
//sage:hotpath
func (f *MutFilter) Slice(v, lo, hi uint32, _ *graph.Scratch) ([]uint32, []int32) {
	hi = min(hi, f.degs[v])
	lo = min(lo, hi)
	base := f.offsets[v]
	return f.edges[base+uint64(lo) : base+uint64(hi)], nil
}

// ActiveEdges implements algos.EdgeFilter.
func (f *MutFilter) ActiveEdges() int64 { return f.live.Load() }

// SizeWords implements algos.EdgeFilter: the mutable image models the
// resident graph, so it bills no small-memory words.
func (f *MutFilter) SizeWords() int64 { return 0 }

// ActiveList implements algos.EdgeFilter. The live prefix is already
// materialized, so decode work equals the live degree.
func (f *MutFilter) ActiveList(worker int, v uint32, dst []uint32, stats *gfilter.IntersectStats) []uint32 {
	deg := f.degs[v]
	f.env.GraphRead(worker, f.EdgeAddr(v), int64(deg))
	if stats != nil {
		stats.DecodedEdges += int64(deg)
	}
	base := f.offsets[v]
	dst = append(dst[:0], f.edges[base:base+uint64(deg)]...)
	return dst
}

// IntersectMarked implements algos.EdgeFilter: v's packed live prefix
// probed against mark up to a's last element, charged as one
// ActiveList(v) and a plain two-pointer merge against a.
//
//sage:hotpath
func (f *MutFilter) IntersectMarked(worker int, v uint32, a []uint32, mark []uint64, out []uint32, stats *gfilter.IntersectStats) []uint32 {
	deg := f.degs[v]
	// The one unmarked call: PSAM accounting is deliberately not hotpath.
	f.env.GraphRead(worker, f.EdgeAddr(v), int64(deg)) //sage:allow hotalloc
	base := f.offsets[v]
	b := f.edges[base : base+uint64(deg)]
	common0 := len(out)
	seen := 0
	if len(a) > 0 {
		last := a[len(a)-1]
		for _, x := range b {
			if x > last {
				break
			}
			seen++
			if mark[x>>6]&(1<<(x&63)) != 0 {
				out = append(out, x)
			}
		}
	}
	if stats != nil {
		var bLast uint32
		if seen > 0 {
			bLast = b[seen-1]
		}
		stats.MergeSteps += gfilter.MergeSteps(a, int64(seen), int64(len(out)-common0), seen == len(b), bLast)
		stats.DecodedEdges += int64(deg)
	}
	return out
}

// packVertex compacts v's adjacency in place — the GBBS approach whose
// writes the PSAM charges at ω (§4.2: "In prior work ... deleted edges
// are handled by actually removing them from the adjacency lists in the
// graph"). Folding the removal count into f.live is the caller's.
func (f *MutFilter) packVertex(worker int, v uint32, pred func(u, ngh uint32) bool) (uint32, int64) {
	deg := f.degs[v]
	if deg == 0 {
		return 0, 0
	}
	base := f.offsets[v]
	f.env.GraphRead(worker, f.EdgeAddr(v), int64(deg))
	wr := uint32(0)
	for i := uint32(0); i < deg; i++ {
		ngh := f.edges[base+uint64(i)]
		if pred(v, ngh) {
			f.edges[base+uint64(wr)] = ngh
			wr++
		}
	}
	removed := int64(deg - wr)
	if removed > 0 {
		// The compaction writes the surviving prefix back into the graph.
		f.env.GraphWrite(worker, f.EdgeAddr(v), int64(wr))
		f.degs[v] = wr
	}
	return wr, removed
}

// PackVertex packs one vertex, as gfilter.Filter.PackVertex does; bulk
// callers go through EdgeMapPack or FilterEdges.
func (f *MutFilter) PackVertex(worker int, v uint32, pred func(u, ngh uint32) bool) (uint32, int64) {
	deg, removed := f.packVertex(worker, v, pred)
	if removed > 0 {
		f.live.Add(-removed)
	}
	return deg, removed
}

// EdgeMapPack implements algos.EdgeFilter on the Sage filter's bulk-pack
// schedule.
func (f *MutFilter) EdgeMapPack(vs *frontier.VertexSubset, pred func(u, ngh uint32) bool) (*frontier.VertexSubset, []uint32) {
	sp := vs.Sparse()
	degs := make([]uint32, len(sp))
	gfilter.PackAll(len(sp), sp, degs, &f.live, func(w int, v uint32) (uint32, int64) { return f.packVertex(w, v, pred) })
	return frontier.FromSparse(vs.N(), sp), degs
}

// FilterEdges implements algos.EdgeFilter.
func (f *MutFilter) FilterEdges(pred func(u, ngh uint32) bool) int64 {
	gfilter.PackAll(int(f.n), nil, nil, &f.live, func(w int, v uint32) (uint32, int64) { return f.packVertex(w, v, pred) })
	return f.live.Load()
}

// Options returns the GBBS baseline configuration of the algorithm suite:
// blocked traversal (edgeMapBlocked, §4.1.1) and mutation-based packing.
func Options(env *psam.Env) *algos.Options {
	o := algos.Defaults().WithEnv(env)
	o.Traverse.Strategy = traverse.Blocked
	o.NewFilter = NewMutFilter
	return o
}
