package store

import (
	"sage/internal/compress"
	"sage/internal/graph"
)

// NewDataset wraps an in-memory graph for encoding, in whichever
// representation is non-nil.
func NewDataset(csr *graph.Graph, cg *compress.CGraph) *Dataset {
	if cg != nil {
		return Encoding(cg, cg.BlockSize())
	}
	return Encoding(csr, 0)
}
