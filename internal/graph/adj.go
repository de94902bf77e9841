package graph

// Adj is the read-only adjacency interface shared by the uncompressed CSR
// representation (*Graph), the byte-compressed representation
// (*compress.CGraph), the update overlay, and the edge filters. The
// traversal layer, the graph filter, and the algorithms are generic over
// it, so every algorithm runs unchanged on any representation —
// mirroring how Sage inherits Ligra+'s compressed formats (§2, §4.2.1).
type Adj interface {
	// NumVertices returns n.
	NumVertices() uint32
	// NumEdges returns the number of stored arcs m.
	NumEdges() uint64
	// Degree returns deg(v).
	//sage:hotpath
	Degree(v uint32) uint32
	// EdgeAddr returns the simulated NVRAM word address of the start of
	// v's adjacency data (for the Memory-Mode cache simulator).
	//sage:hotpath
	EdgeAddr(v uint32) int64
	// ScanCost returns the simulated NVRAM words read when scanning
	// adjacency positions [lo, hi) of v. For compressed graphs this is
	// block-aligned: partial block reads cost the whole block.
	//sage:hotpath
	ScanCost(v uint32, lo, hi uint32) int64
	// Slice is the one way to read neighbors: it returns adjacency
	// positions [lo, hi) of v, in order, as flat read-only slices, with
	// ws nil when every weight is 1 (unweighted graphs). A representation
	// that stores the range flat returns aliases of its own storage and
	// leaves s untouched; one that does not (compressed, merged,
	// filtered) decodes into s, whose contents the next call on s
	// overwrites. hi is clamped to deg(v), and lo at or beyond the
	// clamped hi yields empty slices, so Slice(v, 0, ^uint32(0), s) is
	// v's whole list.
	//sage:arena-view
	//sage:hotpath
	Slice(v, lo, hi uint32, s *Scratch) (nghs []uint32, ws []int32)
	// BlockSize returns the decode granularity: 0 for CSR (any), or the
	// compression block size.
	BlockSize() int
	// Weighted reports whether edges carry weights.
	Weighted() bool
}

// AvgDegree returns max(1, m/n), the group-size parameter davg that
// edgeMapChunked uses (Algorithm 1).
func AvgDegree(g Adj) uint32 {
	n := uint64(g.NumVertices())
	if n == 0 {
		return 1
	}
	return uint32(max(1, g.NumEdges()/n))
}
