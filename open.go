package sage

// The storage-aware dataset API: Open and Create are the single pair of
// entry points, backed by a format registry (internal/store): the v2
// binary container (CSR or byte-compressed sections), Ligra adjacency
// text, and whitespace edge lists. Reading sniffs the format from magic
// bytes (falling back to the extension); writing picks it from the
// extension unless overridden with As.
//
// Binary files are memory-mapped by default: the opened graph's offsets,
// edges, and weights slices alias the read-only mapping directly, so the
// graph is consumed in place from storage — the literal realization of
// Sage's App-Direct configuration, where the graph is a read-only
// structure resident on NVRAM and only vertex-proportional state lives in
// DRAM. Opening a graph costs no resident memory up front; the kernel
// pages adjacency data in as traversals touch it. WithCopy (and platforms
// without mmap) falls back to a private heap buffer with identical
// semantics and identical PSAM accounting.
//
// File-backed graphs own their mapping: Close releases it, and using the
// graph afterwards is an error (the accessors panic, and a second Close
// returns ErrClosed).

import (
	"fmt"

	"sage/internal/graph"
	"sage/internal/store"
)

// ErrCompressed is returned by operations that require the uncompressed
// CSR representation: text encoders, WithUniformWeights, RelabelByDegree.
// Test with errors.Is.
var ErrCompressed = store.ErrCompressed

// ErrClosed is returned when a graph is closed twice.
var ErrClosed = store.ErrClosed

// OpenOption configures Open.
type OpenOption func(*store.OpenOptions)

// WithFormat overrides content sniffing with an explicit format name (see
// Formats).
func WithFormat(name string) OpenOption {
	return func(o *store.OpenOptions) { o.Format = name }
}

// WithCopy forces the heap-resident path: the file is read into a private
// buffer instead of memory-mapped. The resulting graph is independent of
// the file after Open returns.
func WithCopy() OpenOption {
	return func(o *store.OpenOptions) { o.Copy = true }
}

// SaveOption configures Create.
type SaveOption func(*saveConfig)

type saveConfig struct{ format string }

// As selects the output format by registry name, overriding the choice
// implied by the path extension.
func As(format string) SaveOption {
	return func(c *saveConfig) { c.format = format }
}

// Format names accepted by WithFormat and As.
const (
	// FormatBinary is the v2 binary container (.sg, .bin): an mmap-able
	// section-table file holding either CSR or byte-compressed sections.
	FormatBinary = store.FormatBinary
	// FormatAdj is the Ligra AdjacencyGraph text format (.adj, .ligra).
	FormatAdj = store.FormatAdj
	// FormatEdgeList is whitespace edge-list text (.el, .edges, .txt).
	FormatEdgeList = store.FormatEdgeList
)

// Formats returns the registered format names in sniffing order.
func Formats() []string { return store.Names() }

// FormatDescriptions returns one "name doc (extensions)" line per
// registered format, for CLI listings.
func FormatDescriptions() []string { return store.Describe() }

// Open opens the graph stored at path, sniffing the format from the
// file's leading bytes (or the extension, or an explicit WithFormat).
// Binary files are memory-mapped and decoded zero-copy; the caller should
// Close the graph when done to release the mapping.
func Open(path string, opts ...OpenOption) (*Graph, error) {
	var o store.OpenOptions
	for _, opt := range opts {
		opt(&o)
	}
	ds, err := store.Open(path, o)
	if err != nil {
		return nil, err
	}
	return &Graph{adj: ds.Adj(), raw: ds.CSR(), ds: ds}, nil
}

// Create writes g to path. The format comes from As, else from the path
// extension, else the v2 binary container — the only format that stores
// byte-compressed graphs (without re-encoding, so they round-trip
// byte-identically).
func Create(path string, g *Graph, opts ...SaveOption) error {
	return create(path, g.dataset(), opts)
}

func create(path string, d *store.Dataset, opts []SaveOption) error {
	var c saveConfig
	for _, opt := range opts {
		opt(&c)
	}
	return store.Create(nil, path, d, c.format)
}

// GraphFromDataset wraps an already-opened dataset as a Graph without
// transferring ownership: the caller (a dataset cache, a serving
// catalog) keeps ds open for the wrapper's entire use and closes it
// afterwards — Close on the wrapper releases nothing. This is the bridge
// for layers that share one mapped dataset across many concurrent runs,
// wrapping it once per use instead of reopening the file.
func GraphFromDataset(ds *store.Dataset) *Graph {
	return &Graph{adj: ds.Adj(), raw: ds.CSR()}
}

// dataset wraps g for the storage layer in its own representation; a
// snapshot's merged view streams as CSR.
func (g *Graph) dataset() *store.Dataset {
	return store.Encoding(g.use(), g.adj.BlockSize())
}

// materialize writes d into heap memory and reads it back as a Graph.
func materialize(d *store.Dataset) *Graph {
	ds, err := store.Materialize(d)
	if err != nil {
		panic(err) // an in-memory encode has no I/O to fail
	}
	return GraphFromDataset(ds)
}

// csr returns the CSR representation a CSR-only operation works on: g's
// own, or a snapshot's merged view materialized. Byte-compressed graphs
// have none and return ErrCompressed.
func (g *Graph) csr(op string) (*graph.Graph, error) {
	switch {
	case g.Compressed():
		return nil, errCompressedOp(op)
	case g.raw != nil:
		return g.raw, nil
	}
	return materialize(g.dataset()).raw, nil
}

// Mapped reports whether the graph's adjacency arrays alias a live memory
// mapping of the file it was opened from (false for generated, built,
// copied, or heap-loaded graphs).
func (g *Graph) Mapped() bool { return g.ds != nil && g.ds.Mapped() }

// Close releases the storage backing a graph returned by Open (the memory
// mapping, when mapped). After Close the graph must not be used: accessors
// panic, and a second Close returns ErrClosed. Closing a graph that is not
// file-backed marks it closed and releases nothing.
func (g *Graph) Close() error {
	if g.closed.Swap(true) {
		return fmt.Errorf("sage: closing graph twice: %w", ErrClosed)
	}
	if g.ds != nil {
		return g.ds.Close()
	}
	return nil
}

// check panics when the graph has been closed — a mapped graph's slices
// are gone with the mapping, so any later use is a lifecycle bug that must
// surface immediately rather than fault mid-traversal.
func (g *Graph) check() {
	if g.closed.Load() {
		panic("sage: use of closed graph")
	}
}

// use is the engine's entry point to the adjacency: the closed check runs
// once per algorithm call, not per access.
func (g *Graph) use() graph.Adj {
	g.check()
	return g.adj
}

// errCompressedOp builds the uniform misuse error for CSR-only operations.
func errCompressedOp(op string) error {
	return fmt.Errorf("sage: %s: %w", op, ErrCompressed)
}
