package graph

// This file is the access path to adjacency data. Adj.Slice hands the
// caller flat slices — aliases of the representation's own storage (CSR)
// or ranges decoded into a caller-owned Scratch (byte-compressed, merged
// and filtered views) — so the per-edge cost everywhere is a plain slice
// iteration and decode cost is amortized per block; at memory-bandwidth
// traversal rates (the Sage design point, §4.1) a per-edge callback
// would dominate the loop body. Flat additionally strips the interface
// dispatch for the CSR case. It also bills list reads, by one rule: at
// the list's address, in the words the representation stores (ScanCost).

import (
	"math"
	"math/bits"
	"sync/atomic"

	"sage/internal/frontier"
	"sage/internal/parallel"
	"sage/internal/psam"
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
	csr     *Graph   // non-nil: devirtualised slice access
	mask    []uint64 // vertices g reads through its own Slice instead of csr's
	g       Adj
	perEdge int64 // a plain CSR graph's ScanCost per edge; 0 for a view
}

// NewFlat inspects g's concrete type and returns its access path.
func NewFlat(g Adj) Flat {
	switch v := g.(type) {
	case *Graph:
		return Flat{csr: v, g: g, perEdge: v.ScanCost(0, 0, 1)}
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

// ScanCost is Adj.ScanCost on the wrapped graph, resolved like Slice; a
// plain CSR graph's is inlined.
//
//sage:hotpath
func (f *Flat) ScanCost(v, lo, hi uint32) int64 {
	if f.perEdge != 0 {
		return f.perEdge * int64(hi-lo)
	}
	return f.viewScanCost(v, lo, hi)
}

// viewScanCost is ScanCost on a view, out of line so that ScanCost inlines.
//
//sage:hotpath
func (f *Flat) viewScanCost(v, lo, hi uint32) int64 {
	if f.csr != nil && !frontier.Has(f.mask, v) {
		return f.csr.ScanCost(v, lo, hi)
	}
	return f.g.ScanCost(v, lo, hi)
}

// Read is Slice that bills the read to env on worker w: the stored words
// of the range it returns, at v's list address plus the words before lo.
//
//sage:arena-view
func (f *Flat) Read(env *psam.Env, w int, v, lo, hi uint32, s *Scratch) ([]uint32, []int32) {
	nghs, ws := f.Slice(v, lo, hi, s)
	addr := f.g.EdgeAddr(v)
	if lo > 0 {
		addr += f.ScanCost(v, 0, lo)
	}
	env.GraphRead(w, addr, f.ScanCost(v, lo, lo+uint32(len(nghs))))
	return nghs, ws
}

// Bill charges env on worker w the words, summed from ScanCost as the
// caller read them, of list prefixes of a vertex block from v.
func (f *Flat) Bill(env *psam.Env, w int, v uint32, words int64) {
	env.GraphRead(w, f.g.EdgeAddr(v), words)
}

// BillLists charges env on worker w the whole lists of vertices [lo, hi),
// which a loop over a vertex block read. On CSR their words are the span
// of their addresses, so the bill costs nothing per vertex; a view over
// CSR adds the difference at each of its own vertices.
func (f *Flat) BillLists(env *psam.Env, w int, lo, hi uint32) {
	var words int64
	if f.csr == nil {
		for v := lo; v < hi; v++ {
			words += f.g.ScanCost(v, 0, f.g.Degree(v))
		}
	} else {
		words = f.csr.EdgeAddr(hi) - f.csr.EdgeAddr(lo)
		for i := lo >> 6; i < (hi+63)>>6 && int(i) < len(f.mask); i++ {
			for m := atomic.LoadUint64(&f.mask[i]); m != 0; m &= m - 1 {
				if v := i<<6 | uint32(bits.TrailingZeros64(m)); v >= lo && v < hi {
					words += f.g.ScanCost(v, 0, f.g.Degree(v)) - f.csr.ScanCost(v, 0, f.csr.Degree(v))
				}
			}
		}
	}
	f.Bill(env, w, lo, words)
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
