// Package delta implements the batch-dynamic update overlay of the
// semi-asymmetric design: the large graph stays a read-only structure in
// NVRAM (an mmap-backed CSR or byte-compressed container, never written),
// and every mutation lives in a small DRAM-resident per-vertex delta —
// insert and delete sets with degree adjustments — exactly the base+delta
// split that "Algorithmic Building Blocks for Asymmetric Memories"
// prescribes for write-expensive memories, and the structure Aspen-style
// batch-dynamic systems use at scale.
//
// An Overlay is an immutable value: Apply never mutates its receiver, it
// returns a new Overlay sharing every unchanged per-vertex delta (and the
// base graph, zero-copy) with the old one. Snapshots taken before a batch
// therefore stay valid for in-flight traversals; readers never lock.
//
// The Overlay implements graph.Adj — Slice merges (base \ dels) ∪ adds,
// sorted, with weights, into the caller's scratch — so every traversal
// strategy and every registry algorithm runs on it unmodified. Vertices
// without a delta hand back the base's own slices (aliased storage on a
// CSR base: no merge, no copy), and the empty overlay is never handed to
// the traversal layer at all (the sage.Snapshot wrapper exposes the base
// graph itself, keeping the static case byte-identical).
//
// Untouched vertices skip the delta map entirely. Every overlay derived
// from one New shares a touched-vertex mask (a frontier bitmap, n/64
// words), allocated by the first Apply that leaves a delta and never
// copied after: Apply sets its vertices' bits with frontier.Set (atomic
// OR), readers test them with frontier.Has (atomic load). The invariant is a
// superset: a clear bit means no overlay of the chain has a delta at v,
// so Degree, Slice and ScanCost go straight to the base (by direct call
// on a CSR base); a set bit means "consult the map", where v may be
// absent — a cancelled delta, or a sibling or later version's vertex —
// and then falls through to the base, so elder snapshots stay exact. The
// overlay is a graph.Masked view, so graph.Flat reads its clear-bit
// vertices on the inlined CSR path. The mask is DRAM the chain pays once;
// Words does not bill it (it is per base, like the base, not per delta).
//
// PSAM accounting: delta memory is DRAM-resident and reported by Words so
// serving layers can budget it; merged scans of a delta vertex charge the
// base's full scan cost (the merge must examine the base list to apply
// deletions). Inserted edges are DRAM-resident but charged at the base
// rate by position-counting traversals — a conservative upper bound on
// NVRAM reads; splitting the charge exactly is a ROADMAP open item.
package delta

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"sage/internal/frontier"
	"sage/internal/graph"
)

// ErrBadOp marks a rejected batch: an out-of-range endpoint, a
// self-loop, or a weight on an unweighted base. Test with errors.Is;
// serving layers map it to a client error.
var ErrBadOp = errors.New("invalid edge op")

// Op is one undirected edge mutation. Del deletes edge {U, V} if present
// (a no-op otherwise); otherwise the op inserts {U, V} (idempotent), with
// weight W on weighted bases — inserting an edge that already exists with
// a different weight re-weights it. Ops within a batch apply in order.
// The public sage.EdgeOp is this type, hence the wire names.
type Op struct {
	U   uint32 `json:"u"`
	V   uint32 `json:"v"`
	W   int32  `json:"w,omitempty"`
	Del bool   `json:"del,omitempty"`
}

// vdelta is one vertex's DRAM-resident delta: neighbors inserted (sorted,
// with aligned weights on weighted bases) and base neighbors deleted
// (sorted). A re-weighted base edge appears in both sets — deleted from
// the base view, re-inserted at the new weight (never at its base weight:
// that undoes the re-weight). Invariants: adds and the live base view are
// disjoint; dels is a subset of base neighbors; so an empty delta is
// exactly a vertex the view leaves as the base has it.
type vdelta struct {
	adds []uint32
	addW []int32 // aligned with adds; nil on unweighted bases
	dels []uint32
}

// words returns the DRAM-word footprint charged for the delta: one word
// per id, one per weight, plus a constant for the headers and map slot.
func (d *vdelta) words() int64 {
	return 4 + int64(len(d.adds)) + int64(len(d.addW)) + int64(len(d.dels))
}

// empty reports whether the delta no longer changes the vertex.
func (d *vdelta) empty() bool { return len(d.adds) == 0 && len(d.dels) == 0 }

// equal reports whether d changes the vertex exactly as other does; a
// nil other stands for "no delta", equal to any empty d.
func (d *vdelta) equal(other *vdelta) bool {
	if other == nil {
		return d.empty()
	}
	return slices.Equal(d.adds, other.adds) &&
		slices.Equal(d.dels, other.dels) &&
		slices.Equal(d.addW, other.addW)
}

// clone deep-copies the delta so Apply can mutate it privately. addW's
// non-nilness is the weighted-base discriminator, so an empty weight
// slice must stay non-nil through the copy.
func (d *vdelta) clone() *vdelta {
	c := &vdelta{
		adds: append([]uint32(nil), d.adds...),
		dels: append([]uint32(nil), d.dels...),
	}
	if d.addW != nil {
		c.addW = make([]int32, len(d.addW))
		copy(c.addW, d.addW)
	}
	return c
}

// Overlay is an immutable batch-dynamic view of a read-only base graph:
// the base plus per-vertex DRAM deltas. It is safe for any number of
// concurrent readers; Apply builds a new Overlay without touching the
// receiver.
type Overlay struct {
	base     graph.Adj
	csr      *graph.Graph // base, when it is CSR: read without the interface
	n        uint32
	m        uint64 // merged arc count
	weighted bool
	verts    map[uint32]*vdelta
	words    int64  // summed vdelta words
	arcsAdd  uint64 // arcs inserted (Σ len(adds))
	arcsDel  uint64 // base arcs deleted (Σ len(dels))
	// mask has v's bit set if some overlay over this base has (or had)
	// a delta at v; nil until the chain's first delta. A clear bit sends
	// a read straight to the base without the map lookup.
	mask   []uint64
	shared *maskCell // the chain's one mask, allocated on first use
}

// maskCell holds the touched-vertex mask every overlay derived from one
// New shares. The mask only gains bits, so it stays a superset of each
// version's delta vertices: elder snapshots read correctly through it.
type maskCell struct {
	once sync.Once
	mask []uint64
}

func (c *maskCell) get(n uint32) []uint64 {
	c.once.Do(func() { c.mask = make([]uint64, frontier.Words(n)) })
	return c.mask
}

// New returns the empty overlay over base: the identity view.
func New(base graph.Adj) *Overlay {
	csr, _ := base.(*graph.Graph)
	return &Overlay{
		base:     base,
		csr:      csr,
		n:        base.NumVertices(),
		m:        base.NumEdges(),
		weighted: base.Weighted(),
		verts:    map[uint32]*vdelta{},
		shared:   &maskCell{},
	}
}

// Empty reports whether the overlay changes nothing (the identity view).
func (o *Overlay) Empty() bool { return len(o.verts) == 0 }

// Words returns the overlay's DRAM-resident footprint in simulated words
// — the quantity PSAM small-memory budgets are charged with. It bills the
// per-vertex deltas only: the touched-vertex mask is n/64 words paid once
// per chain, independent of the delta's size.
func (o *Overlay) Words() int64 { return o.words }

// DeltaArcs returns the directed arc counts of the delta: arcs inserted
// and base arcs deleted (each undirected edge op contributes two arcs).
// A re-weighted edge counts in both.
func (o *Overlay) DeltaArcs() (added, deleted uint64) { return o.arcsAdd, o.arcsDel }

// baseNeighbors returns v's whole base adjacency (ids and, on weighted
// bases, aligned weights) in storage the caller may keep: the base's own
// arrays, or a scratch private to this call.
func (o *Overlay) baseNeighbors(v uint32) ([]uint32, []int32) {
	var s graph.Scratch
	return o.base.Slice(v, 0, math.MaxUint32, &s)
}

// find locates x in the sorted slice s.
func find(s []uint32, x uint32) (int, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	return i, i < len(s) && s[i] == x
}

// insertAt inserts x into the sorted slice s at position i.
func insertAt(s []uint32, i int, x uint32) []uint32 {
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s
}

// removeAt removes position i from s.
func removeAt(s []uint32, i int) []uint32 {
	copy(s[i:], s[i+1:])
	return s[:len(s)-1]
}

func insertAtW(s []int32, i int, x int32) []int32 {
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s
}

func removeAtW(s []int32, i int) []int32 {
	copy(s[i:], s[i+1:])
	return s[:len(s)-1]
}

// applyArc applies one directed half of an op to v's delta. base/baseW is
// v's materialized base adjacency. It returns the arc-count change.
func (o *Overlay) applyArc(d *vdelta, base []uint32, baseW []int32, ngh uint32, w int32, del bool) int {
	bi, inBase := find(base, ngh)
	di, inDels := find(d.dels, ngh)
	ai, inAdds := find(d.adds, ngh)
	switch {
	case del:
		delta := 0
		if inAdds {
			d.adds = removeAt(d.adds, ai)
			if d.addW != nil {
				d.addW = removeAtW(d.addW, ai)
			}
			delta--
		}
		if inBase && !inDels {
			d.dels = insertAt(d.dels, di, ngh)
			delta--
		}
		return delta
	case inBase && !inDels:
		// Present in the live base view. Unweighted (or same weight):
		// idempotent no-op. Weighted with a new weight: delete the base
		// arc and re-insert at w.
		if !o.weighted || baseW[bi] == w {
			return 0
		}
		d.dels = insertAt(d.dels, di, ngh)
		d.adds = insertAt(d.adds, ai, ngh)
		d.addW = insertAtW(d.addW, ai, w)
		return 0
	case inBase && inDels:
		// Deleted base edge being re-inserted. At the original weight the
		// deletion is simply undone; otherwise it becomes a re-weight.
		// A re-weighted edge set back to its base weight is undone too,
		// so a delta holds exactly where the view differs from the base.
		if inAdds {
			if !o.weighted || baseW[bi] == w {
				d.adds = removeAt(d.adds, ai)
				if d.addW != nil {
					d.addW = removeAtW(d.addW, ai)
				}
				d.dels = removeAt(d.dels, di)
				return 0
			}
			d.addW[ai] = w
			return 0
		}
		if !o.weighted || baseW[bi] == w {
			d.dels = removeAt(d.dels, di)
			return 1
		}
		d.adds = insertAt(d.adds, ai, ngh)
		d.addW = insertAtW(d.addW, ai, w)
		return 1
	case inAdds:
		if d.addW != nil {
			d.addW[ai] = w
		}
		return 0
	default:
		d.adds = insertAt(d.adds, ai, ngh)
		if d.addW != nil {
			d.addW = insertAtW(d.addW, ai, w)
		}
		return 1
	}
}

// Apply returns a new Overlay with ops applied in order, sharing the base
// and every unchanged per-vertex delta with the receiver. The receiver is
// not modified; snapshots holding it stay valid. Self-loops and
// out-of-range endpoints reject the whole batch (it applies atomically or
// not at all); weights on an unweighted base are likewise rejected.
func (o *Overlay) Apply(ops []Op) (*Overlay, error) {
	for i, op := range ops {
		if op.U >= o.n || op.V >= o.n {
			return nil, fmt.Errorf("delta: op %d: %w: edge (%d,%d) out of range (n=%d)", i, ErrBadOp, op.U, op.V, o.n)
		}
		if op.U == op.V {
			return nil, fmt.Errorf("delta: op %d: %w: self-loop at %d (graphs are simple)", i, ErrBadOp, op.U)
		}
		if !o.weighted && !op.Del && op.W != 0 && op.W != 1 {
			return nil, fmt.Errorf("delta: op %d: %w: weight %d on an unweighted graph", i, ErrBadOp, op.W)
		}
	}
	nv := &Overlay{
		base: o.base, csr: o.csr, n: o.n, m: o.m, weighted: o.weighted,
		verts: make(map[uint32]*vdelta, len(o.verts)+len(ops)),
		words: o.words, arcsAdd: o.arcsAdd, arcsDel: o.arcsDel,
		mask: o.mask, shared: o.shared,
	}
	for v, d := range o.verts {
		nv.verts[v] = d
	}
	// Copy-on-write: the first touch of a vertex in this batch clones its
	// delta; later ops in the same batch mutate the clone in place. The
	// vertex's base adjacency is materialized once per batch alongside it
	// (the base is immutable for the batch, and re-decoding a hub's list
	// per op would make a B-op batch cost O(B·deg) base decodes).
	cloned := map[uint32]*vdelta{}
	baseN := map[uint32][]uint32{}
	baseW := map[uint32][]int32{}
	touch := func(v uint32) *vdelta {
		if d, ok := cloned[v]; ok {
			return d
		}
		var d *vdelta
		if old, ok := nv.verts[v]; ok {
			d = old.clone()
		} else {
			d = &vdelta{}
			if nv.weighted {
				d.addW = []int32{}
			}
		}
		if old := nv.verts[v]; old != nil {
			nv.words -= old.words()
			nv.arcsAdd -= uint64(len(old.adds))
			nv.arcsDel -= uint64(len(old.dels))
		}
		cloned[v], nv.verts[v] = d, d
		return d
	}
	for _, op := range ops {
		w := op.W
		if nv.weighted && !op.Del && w == 0 {
			w = 1 // the documented default insert weight
		}
		for _, dir := range [2][2]uint32{{op.U, op.V}, {op.V, op.U}} {
			d := touch(dir[0])
			if _, ok := baseN[dir[0]]; !ok {
				baseN[dir[0]], baseW[dir[0]] = nv.baseNeighbors(dir[0])
			}
			delta := nv.applyArc(d, baseN[dir[0]], baseW[dir[0]], dir[1], w, op.Del)
			nv.m = uint64(int64(nv.m) + int64(delta))
		}
	}
	// Settle accounting, mark the touched vertices in the mask, and drop
	// deltas the batch cancelled out (their bits stay set: the mask is a
	// superset). Bits are set before nv is returned, so a reader of nv
	// sees every one of its vertices marked. Track whether any touched
	// vertex actually changed: a batch of pure no-ops (re-inserting
	// present edges, deleting absent ones) returns the receiver itself,
	// so callers can detect "nothing changed" by pointer equality and
	// skip republishing.
	changed := false
	for v := range cloned {
		d := nv.verts[v]
		if !d.equal(o.verts[v]) {
			changed = true
		}
		if d.empty() {
			delete(nv.verts, v)
			continue
		}
		if nv.mask == nil {
			nv.mask = nv.shared.get(nv.n)
		}
		frontier.Set(nv.mask, v)
		nv.words += d.words()
		nv.arcsAdd += uint64(len(d.adds))
		nv.arcsDel += uint64(len(d.dels))
	}
	if !changed {
		return o, nil
	}
	return nv, nil
}

// --------------------------------------------------------------------
// graph.Adj: the merged adjacency view.
// --------------------------------------------------------------------

// NumVertices returns n.
func (o *Overlay) NumVertices() uint32 { return o.n }

// NumEdges returns the merged arc count: base arcs minus deletions plus
// insertions.
func (o *Overlay) NumEdges() uint64 { return o.m }

// Weighted reports whether the base carries edge weights.
func (o *Overlay) Weighted() bool { return o.weighted }

// at returns v's delta, or nil where the view reads as the base. A clear
// mask bit answers without the map lookup; a set bit may still find no
// delta (a cancelled one, or a sibling or later version's vertex).
//
//sage:hotpath
func (o *Overlay) at(v uint32) *vdelta {
	if !frontier.Has(o.mask, v) {
		return nil
	}
	return o.verts[v]
}

// baseDegree is the base's degree of v, read directly on a CSR base.
//
//sage:hotpath
func (o *Overlay) baseDegree(v uint32) uint32 {
	if o.csr != nil {
		return o.csr.Degree(v)
	}
	return o.base.Degree(v)
}

// Degree returns the merged degree of v. A vertex whose mask bit is
// clear has no delta in any overlay of the chain and answers with the
// base's degree; only a set bit pays the map lookup.
//
//sage:hotpath
func (o *Overlay) Degree(v uint32) uint32 {
	d := o.at(v)
	if d == nil {
		return o.baseDegree(v)
	}
	return o.baseDegree(v) + uint32(len(d.adds)) - uint32(len(d.dels))
}

// EdgeAddr returns the simulated NVRAM address of v's base adjacency —
// inserted edges live in DRAM and have no NVRAM address of their own.
//
//sage:hotpath
func (o *Overlay) EdgeAddr(v uint32) int64 { return o.base.EdgeAddr(v) }

// BlockSize reports 0: the merged view supports arbitrary decode
// granularity regardless of the base's block structure (Slice re-merges
// per call).
func (o *Overlay) BlockSize() int { return 0 }

// ScanCost returns the simulated NVRAM words read when scanning merged
// positions [lo, hi) of v. Vertices without a delta (a clear mask bit,
// or a set one with no delta behind it) delegate to the base; a delta
// vertex charges its full base scan — applying deletions forces
// the merge to examine the base list — which upper-bounds the true cost.
func (o *Overlay) ScanCost(v uint32, lo, hi uint32) int64 {
	if o.at(v) == nil {
		return o.baseScanCost(v, lo, hi)
	}
	if hi <= lo {
		return 0
	}
	return o.baseScanCost(v, 0, o.baseDegree(v))
}

// baseScanCost is the base's ScanCost, called directly on a CSR base.
func (o *Overlay) baseScanCost(v uint32, lo, hi uint32) int64 {
	if o.csr != nil {
		return o.csr.ScanCost(v, lo, hi)
	}
	return o.base.ScanCost(v, lo, hi)
}

// Slice implements graph.Adj. A vertex without a delta is the base's
// business entirely — whatever the base returns (aliased storage on CSR)
// is returned as is; a clear mask bit says so without the map lookup,
// and a set bit with no delta behind it falls through the same way. A
// delta vertex merges its whole base list, decoded
// into s.Inner() when the base is not flat, with the delta into s:
// base neighbors absent from the delete set keep their base weights;
// inserted neighbors (including re-weighted base edges, which sit in both
// sets) carry their delta weights. The merge stops at hi.
//
//sage:hotpath
func (o *Overlay) Slice(v, lo, hi uint32, s *graph.Scratch) ([]uint32, []int32) {
	d := o.at(v)
	if d == nil {
		return o.baseSlice(v, lo, hi, s)
	}
	base, baseW := o.baseSlice(v, 0, math.MaxUint32, s.Inner())
	nghs, ws := s.Nghs[:0], s.Ws[:0]
	pos := uint32(0)
	bi, ai, di := 0, 0, 0
	for pos < hi && (bi < len(base) || ai < len(d.adds)) {
		var u uint32
		w := int32(1)
		if ai < len(d.adds) && (bi == len(base) || d.adds[ai] <= base[bi]) {
			u = d.adds[ai]
			if o.weighted {
				w = d.addW[ai]
			}
			if bi < len(base) && base[bi] == u {
				bi++ // the deleted base arc this insert re-weights
			}
			ai++
		} else {
			u = base[bi]
			if o.weighted {
				w = baseW[bi]
			}
			bi++
			for di < len(d.dels) && d.dels[di] < u {
				di++
			}
			if di < len(d.dels) && d.dels[di] == u {
				di++
				continue
			}
		}
		if pos >= lo {
			nghs = append(nghs, u)
			if o.weighted {
				ws = append(ws, w)
			}
		}
		pos++
	}
	s.Nghs = nghs
	if !o.weighted {
		return nghs, nil
	}
	s.Ws = ws
	return nghs, ws
}

// baseSlice is the base's Slice, called directly on a CSR base.
//
//sage:arena-view
//sage:hotpath
func (o *Overlay) baseSlice(v, lo, hi uint32, s *graph.Scratch) ([]uint32, []int32) {
	if o.csr != nil {
		return o.csr.Slice(v, lo, hi, s)
	}
	return o.base.Slice(v, lo, hi, s)
}

// CSRBase implements graph.Masked: the base when it is CSR, and the
// mask outside of which the overlay reads exactly as the base.
func (o *Overlay) CSRBase() (*graph.Graph, []uint64) { return o.csr, o.mask }

// SizeWords returns the simulated NVRAM footprint of the view — the
// base's; the delta is DRAM-resident and reported by Words instead.
func (o *Overlay) SizeWords() int64 {
	if s, ok := o.base.(interface{ SizeWords() int64 }); ok {
		return s.SizeWords()
	}
	w := int64(o.base.NumVertices()) + 1 + int64(o.base.NumEdges())
	if o.base.Weighted() {
		w += int64(o.base.NumEdges())
	}
	return w
}
