package sage

// Batch-dynamic snapshots: the semi-asymmetric answer to evolving graphs.
// The stored graph stays exactly what PR 3 made it — an immutable,
// usually mmap-backed structure that is never written — and every update
// lives in a small DRAM-resident delta (internal/delta): per-vertex
// insert/delete sets with degree adjustments. ApplyBatch is persistent in
// the functional-data-structure sense: it returns a NEW snapshot sharing
// the base (zero-copy) and all unchanged per-vertex deltas with the old
// one, so snapshots taken before a batch remain valid for in-flight runs
// — the property sage-serve's update endpoint leans on to update a
// dataset under live traffic without locking readers out.
//
// A snapshot whose overlay is empty exposes the base *Graph itself, so
// static workloads keep the flat zero-copy fast path bit-for-bit; only
// vertices the overlay actually touches pay the merge.

import (
	"fmt"

	"sage/internal/delta"
	"sage/internal/store"
)

// ErrBadEdgeOp marks an ApplyBatch rejection: an out-of-range endpoint,
// a self-loop, or a weight on an unweighted graph. Test with errors.Is.
var ErrBadEdgeOp = delta.ErrBadOp

// EdgeOp is one undirected edge mutation in an update batch. Del deletes
// edge {U, V} when present (a no-op otherwise); otherwise the op inserts
// {U, V} (idempotent). On weighted graphs W is the insert weight (0
// selects 1), and inserting an existing edge with a different weight
// re-weights it; on unweighted graphs W must be 0 or 1. The JSON names
// are the wire format of sage-serve's update endpoint.
type EdgeOp = delta.Op

// Snapshot is an immutable view of a graph at one update generation: a
// read-only base plus a DRAM-resident delta overlay. Snapshots are cheap
// values — they share the base storage zero-copy — and are safe for any
// number of concurrent readers. A snapshot is valid for as long as its
// base graph stays open; it neither owns nor extends the base's storage
// lifetime.
type Snapshot struct {
	base *Graph
	ov   *delta.Overlay
	h    *Graph // the handle algorithms run on: base itself when ov is empty
}

// Snapshot returns the identity snapshot of g: an empty overlay over g as
// the base. Graph() of the result is g itself, so running on it is
// byte-identical to running on g.
func (g *Graph) Snapshot() *Snapshot {
	g.check()
	return &Snapshot{base: g, ov: delta.New(g.adj), h: g}
}

// ApplyBatch returns a new snapshot with ops applied in order, leaving
// the receiver (and every older snapshot) untouched. The batch applies
// atomically: any invalid op — an out-of-range endpoint, a self-loop, a
// weight on an unweighted graph — rejects the whole batch. The base
// storage is never written; the returned snapshot's delta footprint is
// reported by DeltaWords.
func (s *Snapshot) ApplyBatch(ops []EdgeOp) (*Snapshot, error) {
	ov, err := s.ov.Apply(ops)
	if err != nil {
		return nil, fmt.Errorf("sage: %w", err)
	}
	if ov == s.ov {
		// The batch changed nothing — every op was already satisfied.
		// Returning the receiver lets callers detect that by pointer
		// equality (sage-serve skips the republish and generation bump).
		return s, nil
	}
	next := &Snapshot{base: s.base, ov: ov}
	if ov.Empty() {
		next.h = s.base // the batch cancelled out: back to the fast path
	} else {
		next.h = &Graph{adj: ov}
	}
	return next, nil
}

// Graph returns the handle algorithms run on: the base graph itself when
// the overlay is empty (preserving the flat zero-copy fast path), or a
// merged overlay view otherwise. Every Engine method and RunAlgorithm
// accepts it unchanged.
func (s *Snapshot) Graph() *Graph { return s.h }

// NumVertices returns n (updates cannot grow the vertex set; that is a
// ROADMAP open item).
func (s *Snapshot) NumVertices() uint32 { return s.ov.NumVertices() }

// NumEdges returns the merged arc count (2x the undirected edges).
func (s *Snapshot) NumEdges() uint64 { return s.ov.NumEdges() }

// DeltaWords returns the DRAM-resident footprint of the snapshot's
// overlay in simulated words — 0 for the identity snapshot. In the PSAM
// this is small-memory residency, held once however many runs share the
// snapshot; sage-serve bounds it with its per-dataset delta budget.
func (s *Snapshot) DeltaWords() int64 { return s.ov.Words() }

// DeltaArcs returns the directed arc counts of the overlay: arcs inserted
// and base arcs deleted (each undirected edge op moves two arcs).
func (s *Snapshot) DeltaArcs() (added, deleted uint64) { return s.ov.DeltaArcs() }

// Materialize eagerly rebuilds the merged view as a fresh static graph:
// heap-resident, delta-free, independent of the snapshot and its base.
// It is the container Compact writes, encoded into one heap buffer and
// read back, so byte-compressed bases stay compressed at the same block
// size. The identity snapshot returns its base unchanged.
func (s *Snapshot) Materialize() *Graph {
	if s.ov.Empty() {
		return s.base
	}
	return materialize(s.Encoding())
}

// Compact writes the merged view to path as a fresh container generation
// through Create (atomic temp-file rename; the base file is only replaced
// if path names it, and never written in place), in the base's
// representation and block size. The view streams into the file in one
// pass, so compaction holds O(n) words of DRAM, not a rebuilt graph.
// Serving layers follow it with a cache invalidation so the next open
// maps the compacted file and the delta restarts empty.
func (s *Snapshot) Compact(path string, opts ...SaveOption) error {
	return create(path, s.Encoding(), opts)
}

// Encoding is the merged view as the storage layer writes it, in the
// base's representation and block size: the bridge for a layer that
// writes it through store.Create itself, as sage-serve's compaction does.
func (s *Snapshot) Encoding() *store.Dataset {
	return store.Encoding(s.h.use(), s.base.adj.BlockSize())
}
