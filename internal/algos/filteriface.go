package algos

import (
	"sage/internal/frontier"
	"sage/internal/gfilter"
	"sage/internal/graph"
	"sage/internal/psam"
)

// EdgeFilter abstracts the batch-deletion structure used by the four
// filtering algorithms (biconnectivity, approximate set cover, triangle
// counting, maximal matching). Sage's implementation is the bit-packed
// DRAM graph filter (§4.2); the GBBS baseline implementation packs the
// adjacency arrays in place, which — on NVRAM — turns every deletion into
// expensive NVRAM writes. Swapping the factory is how the Figure 1/7
// experiments compare the two designs over identical algorithm code.
type EdgeFilter interface {
	graph.Adj
	// EdgeMapPack packs every vertex of vs, returning the subset and the
	// new degrees.
	EdgeMapPack(vs *frontier.VertexSubset, pred func(u, ngh uint32) bool) (*frontier.VertexSubset, []uint32)
	// FilterEdges packs all vertices and returns the remaining edge count.
	FilterEdges(pred func(u, ngh uint32) bool) int64
	// ActiveEdges returns the current active-edge count.
	ActiveEdges() int64
	// SizeWords returns the words the filter billed with Env.Alloc when
	// it was built; its user frees them with Env.Free when it is done.
	SizeWords() int64
	// ActiveList materializes v's active neighbors into dst, accounting
	// decode work.
	ActiveList(worker int, v uint32, dst []uint32, stats *gfilter.IntersectStats) []uint32
	// IntersectMarked appends a ∩ active(v) to out for a sorted list a
	// whose elements are exactly the set bits of mark, a bitmap of
	// ⌈n/64⌉ words the caller owns (one per worker). It probes v's active
	// neighbors against mark in order, stopping past a's last element,
	// and charges the PSAM and stats what ActiveList(v) followed by a
	// two-pointer merge against a would.
	//
	//sage:hotpath
	IntersectMarked(worker int, v uint32, a []uint32, mark []uint64, out []uint32, stats *gfilter.IntersectStats) []uint32
}

// FilterFactory builds an EdgeFilter over a graph.
type FilterFactory func(g graph.Adj, fb int, env *psam.Env) EdgeFilter

// newFilter builds the configured filter (Sage's gfilter by default).
func (o *Options) newFilter(g graph.Adj) EdgeFilter {
	if o.NewFilter != nil {
		return o.NewFilter(g, o.FB, o.Env)
	}
	return gfilter.New(g, o.FB, o.Env)
}
