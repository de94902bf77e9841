package graph

// This file is the access path to adjacency data. Adj.Slice hands the
// caller flat slices — aliases of the representation's own storage (CSR)
// or ranges decoded into a caller-owned Scratch (byte-compressed, merged
// and filtered views) — so the per-edge cost everywhere is a plain slice
// iteration and decode cost is amortized per block; at memory-bandwidth
// traversal rates (the Sage design point, §4.1) a per-edge callback
// would dominate the loop body. Flat additionally strips the interface
// dispatch for the CSR case.

import (
	"math"

	"sage/internal/frontier"
	"sage/internal/parallel"
)

// Scratch is a per-worker decode buffer for Adj.Slice. Workers own one
// Scratch each (indexed by the worker id the parallel package exposes) so
// decoding never allocates in steady state. The padding keeps neighboring
// workers' slice headers off one cache line.
type Scratch struct {
	Nghs  []uint32
	Ws    []int32
	inner *Scratch
	_     [8]byte
}

// Inner returns the scratch a layered representation (overlay, filter)
// decodes its base into while it builds its own output in s. Layers nest,
// so the chain grows to the depth of the view stack, once per worker.
//
//sage:hotpath
func (s *Scratch) Inner() *Scratch {
	if s.inner == nil {
		// First use only: one allocation per worker per view layer.
		s.inner = new(Scratch) //sage:allow hotalloc
	}
	return s.inner
}

// ScratchPool is a full set of per-worker decode buffers owned by one
// logical run. Worker ids are unique at any instant (the persistent pool
// and the transient fallback both index [0, Workers())), but two
// *concurrent* runs each see the full id range — so buffers shared
// across runs would race. Each run therefore owns a ScratchPool; the
// zero value is ready to use.
type ScratchPool struct {
	ws [parallel.MaxWorkers]Scratch
}

// Get returns worker w's scratch buffer.
//
//sage:hotpath
func (p *ScratchPool) Get(w int) *Scratch { return &p.ws[w] }

// Masked is a view that reads exactly as a CSR base at every vertex
// whose bit in the mask is clear: the update overlay, whose mask marks
// the vertices with a delta, a frontier bitmap the view may keep Setting
// bits of while Flat tests them with frontier.Has. Flat reads clear-bit
// vertices straight from the base. A view whose base is not CSR returns a
// nil base.
type Masked interface {
	CSRBase() (*Graph, []uint64)
}

// Flat is Adj.Slice with the representation resolved once, outside the
// hot loop: CSR graphs — and the clear-bit vertices of a Masked view over
// a CSR base — are read by direct calls the compiler can inline,
// everything else through the interface. The zero value is not
// meaningful; use NewFlat.
type Flat struct {
	csr  *Graph   // non-nil: devirtualised slice access
	mask []uint64 // vertices g reads through its own Slice instead of csr's
	g    Adj
}

// NewFlat inspects g's concrete type and returns its access path.
func NewFlat(g Adj) Flat {
	switch v := g.(type) {
	case *Graph:
		return Flat{csr: v, g: g}
	case Masked:
		csr, mask := v.CSRBase()
		return Flat{csr: csr, mask: mask, g: g}
	}
	return Flat{g: g}
}

// Slice is Adj.Slice on the wrapped graph.
//
//sage:arena-view
//sage:hotpath
func (f *Flat) Slice(v, lo, hi uint32, s *Scratch) ([]uint32, []int32) {
	if f.csr != nil && !frontier.Has(f.mask, v) {
		return f.csr.Slice(v, lo, hi, s)
	}
	return f.g.Slice(v, lo, hi, s)
}

// Full returns v's complete adjacency as flat slices. For CSR (and a
// clear-bit vertex of a Masked view over CSR) it is a pure slice
// expression — no interface dispatch, not even for the degree — making it
// the cheapest per-vertex entry into the hot loops.
//
//sage:arena-view
//sage:hotpath
func (f *Flat) Full(v uint32, s *Scratch) ([]uint32, []int32) {
	if f.csr != nil && !frontier.Has(f.mask, v) {
		lo, hi := f.csr.offsets[v], f.csr.offsets[v+1]
		nghs := f.csr.edges[lo:hi]
		if f.csr.weights == nil {
			return nghs, nil
		}
		return nghs, f.csr.weights[lo:hi]
	}
	return f.g.Slice(v, 0, math.MaxUint32, s)
}

// Slice implements Adj for the CSR representation: both arrays are
// already flat, so the slices alias the graph and s is unused.
//
//sage:arena-view
//sage:hotpath
func (g *Graph) Slice(v, lo, hi uint32, _ *Scratch) ([]uint32, []int32) {
	base, end := g.offsets[v], g.offsets[v+1]
	h := min(base+uint64(hi), end)
	l := min(base+uint64(lo), h)
	if g.weights == nil {
		return g.edges[l:h], nil
	}
	return g.edges[l:h], g.weights[l:h]
}
