// Package sage is a Go implementation of Sage, the parallel
// semi-asymmetric graph engine of Dhulipala et al. (VLDB 2020): graph
// algorithms that treat the graph as a read-only structure residing in
// NVRAM and keep mutable state proportional to the number of vertices in
// DRAM, eliminating NVRAM writes entirely.
//
// Real Optane hardware is not required: the engine runs against a
// simulated two-tier memory (the Parallel Semi-Asymmetric Model, PSAM)
// that charges every graph and state access to the appropriate account,
// so programs observe both real wall-clock parallel performance and the
// deterministic PSAM cost that the paper's evaluation is framed in.
//
// A minimal session:
//
//	g := sage.GenerateRMAT(18, 16, 1)
//	e := sage.NewEngine(sage.WithMode(sage.AppDirect))
//	parents := sage.Must(e.BFS(ctx, g, 0))
//	fmt.Println(e.Stats())
//
// Engines are immutable and goroutine-safe: every call executes as its
// own Run with private PSAM counters merged into the engine aggregate on
// completion, so concurrent calls on one engine are correct by
// construction. Every typed method (e.BFS(ctx, g, 0)) takes a context,
// cancels at frontier/iteration boundaries and returns ctx.Err(); Must
// unwraps a call that cannot fail. sage.Algorithms enumerates the registry
// behind the typed methods, invokable by name through Engine.RunAlgorithm.
//
// Stored graphs are handled by Open and Create (see open.go): a format
// registry sniffs binary containers and text formats, and binary files
// are memory-mapped so the opened graph is consumed in place from
// storage — close it with Graph.Close when done:
//
//	g, err := sage.Open("web.sg")
//	defer g.Close()
//
// Evolving graphs are served through batch-dynamic snapshots (see
// snapshot.go): the stored base stays read-only while edge updates live
// in a DRAM-resident delta, the semi-asymmetric split applied to
// mutation itself. ApplyBatch returns a new immutable Snapshot sharing
// the base zero-copy; every algorithm runs on a snapshot unchanged, and
// Compact folds the delta into a fresh container file:
//
//	snap, err := g.Snapshot().ApplyBatch([]sage.EdgeOp{{U: 1, V: 2}})
//	parents = sage.Must(e.BFS(ctx, snap.Graph(), 0))
package sage

import (
	"fmt"
	"sync/atomic"

	"sage/internal/compress"
	"sage/internal/gen"
	"sage/internal/graph"
	"sage/internal/parallel"
	"sage/internal/psam"
	"sage/internal/store"
	"sage/internal/traverse"
)

// Mode selects where the simulated graph lives (§5.1.2, §5.4).
type Mode = psam.Mode

// Memory configurations, re-exported from the PSAM model.
const (
	// DRAM stores graph and state in DRAM (the in-memory baseline).
	DRAM = psam.DRAMOnly
	// AppDirect stores the graph in byte-addressable NVRAM and all
	// mutable state in DRAM — Sage's configuration.
	AppDirect = psam.AppDirect
	// MemoryMode stores the graph behind a direct-mapped DRAM cache.
	MemoryMode = psam.MemoryMode
	// NVRAMAll stores graph and temporaries in NVRAM (the libvmmalloc
	// emulation of Figure 7).
	NVRAMAll = psam.NVRAMAll
)

// ParseMode resolves a memory-configuration name as the CLIs spell it.
func ParseMode(name string) (Mode, error) {
	switch name {
	case "dram":
		return DRAM, nil
	case "appdirect":
		return AppDirect, nil
	case "memorymode":
		return MemoryMode, nil
	case "nvramall":
		return NVRAMAll, nil
	}
	return 0, fmt.Errorf("sage: unknown mode %q (known: dram, appdirect, memorymode, nvramall)", name)
}

// Strategy selects the sparse traversal implementation (§4.1).
type Strategy = traverse.Strategy

// Traversal strategies.
const (
	// Chunked is Sage's edgeMapChunked: O(n) intermediate memory.
	Chunked = traverse.Chunked
	// Blocked is GBBS's edgeMapBlocked baseline.
	Blocked = traverse.Blocked
	// Sparse is Ligra's original push traversal.
	Sparse = traverse.Sparse
	// Auto selects direction and push implementation per traversal from
	// the engine's cost model's predictions instead of the measured-count
	// heuristic.
	Auto = traverse.Auto
)

// ParseStrategy resolves a traversal-strategy name as the CLIs spell it.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "chunked":
		return Chunked, nil
	case "blocked":
		return Blocked, nil
	case "sparse":
		return Sparse, nil
	case "auto":
		return Auto, nil
	}
	return 0, fmt.Errorf("sage: unknown strategy %q (known: chunked, blocked, sparse, auto)", name)
}

// Graph is an immutable graph handle: an uncompressed CSR or a
// byte-compressed representation, optionally weighted. Graphs returned by
// Open may be backed by a memory mapping of their file; Close releases it.
type Graph struct {
	adj    graph.Adj
	raw    *graph.Graph   // non-nil iff uncompressed
	ds     *store.Dataset // non-nil iff file-backed (owns the arena)
	closed atomic.Bool
}

// NumVertices returns n.
func (g *Graph) NumVertices() uint32 { g.check(); return g.adj.NumVertices() }

// NumEdges returns the number of stored arcs (2x the undirected edges).
func (g *Graph) NumEdges() uint64 { g.check(); return g.adj.NumEdges() }

// Weighted reports whether edges carry integer weights.
func (g *Graph) Weighted() bool { g.check(); return g.adj.Weighted() }

// Compressed reports whether the graph uses the byte-compressed format.
func (g *Graph) Compressed() bool {
	g.check()
	_, ok := g.adj.(*compress.CGraph)
	return ok
}

// Degree returns deg(v).
func (g *Graph) Degree(v uint32) uint32 { g.check(); return g.adj.Degree(v) }

// SizeWords returns the simulated NVRAM footprint. For snapshot views
// this is the base's footprint; the DRAM-resident delta is reported by
// Snapshot.DeltaWords instead.
func (g *Graph) SizeWords() int64 {
	g.check()
	if g.raw != nil {
		return g.raw.SizeWords()
	}
	return g.adj.(interface{ SizeWords() int64 }).SizeWords()
}

// Edge is an undirected edge.
type Edge = graph.Edge

// WeightedEdge is an edge with an integer weight.
type WeightedEdge = graph.WEdge

// FromEdges builds a symmetrized, deduplicated graph over n vertices.
func FromEdges(n uint32, edges []Edge) *Graph {
	raw := graph.FromEdges(n, edges, graph.BuildOpts{Symmetrize: true})
	return &Graph{adj: raw, raw: raw}
}

// FromWeightedEdges builds a symmetrized weighted graph.
func FromWeightedEdges(n uint32, edges []WeightedEdge) *Graph {
	raw := graph.FromWeightedEdges(n, edges, graph.BuildOpts{Symmetrize: true})
	return &Graph{adj: raw, raw: raw}
}

// GenerateRMAT generates a symmetrized R-MAT graph with 2^logN vertices
// and ~avgDeg·2^logN arcs (the stand-in for the paper's social/web
// inputs).
func GenerateRMAT(logN, avgDeg int, seed uint64) *Graph {
	raw := gen.RMAT(logN, avgDeg, seed)
	return &Graph{adj: raw, raw: raw}
}

// GenerateErdosRenyi generates a G(n, m) random graph.
func GenerateErdosRenyi(n uint32, m int, seed uint64) *Graph {
	raw := gen.ErdosRenyi(n, m, seed)
	return &Graph{adj: raw, raw: raw}
}

// GeneratePowerLaw generates a preferential-attachment graph with ~d
// edges per vertex.
func GeneratePowerLaw(n uint32, d int, seed uint64) *Graph {
	raw := gen.PowerLaw(n, d, seed)
	return &Graph{adj: raw, raw: raw}
}

// GenerateGrid generates a rows×cols lattice (torus if wrap).
func GenerateGrid(rows, cols uint32, wrap bool) *Graph {
	raw := gen.Grid2D(rows, cols, wrap)
	return &Graph{adj: raw, raw: raw}
}

// GenerateStar generates a star: vertex 0 adjacent to all others (the
// maximum-skew degree distribution, a chunking stress test).
func GenerateStar(n uint32) *Graph {
	raw := gen.Star(n)
	return &Graph{adj: raw, raw: raw}
}

// GenerateChain generates a path graph (the maximum-diameter input, a
// frontier-overhead stress test).
func GenerateChain(n uint32) *Graph {
	raw := gen.Chain(n)
	return &Graph{adj: raw, raw: raw}
}

// WithUniformWeights returns a weighted copy with weights uniform in
// [1, log2 n), the paper's weighting (§5.1.3). Weighting requires the CSR
// representation (a snapshot view is materialized); compressed graphs
// return ErrCompressed.
func (g *Graph) WithUniformWeights(seed uint64) (*Graph, error) {
	csr, err := g.csr("weighting")
	if err != nil {
		return nil, err
	}
	raw := gen.AddUniformWeights(csr, seed)
	return &Graph{adj: raw, raw: raw}, nil
}

// Compress returns the byte-compressed representation with the given
// compression block size (64/128/256; §4.2.1, Table 4). Weighted graphs
// interleave zigzag-varint weights per edge, as Ligra+ does. Any
// uncompressed handle compresses, snapshot views included; a compressed
// graph is returned as is.
func (g *Graph) Compress(blockSize int) *Graph {
	if g.Compressed() {
		return g
	}
	return &Graph{adj: compress.Compress(g.adj, blockSize)}
}

// Raw exposes the underlying adjacency (for the experiment harness).
func (g *Graph) Raw() graph.Adj { g.check(); return g.adj }

// RawCSR exposes the CSR representation, or nil for compressed graphs.
func (g *Graph) RawCSR() *graph.Graph { g.check(); return g.raw }

// SetWorkers sets the global worker-pool size (T1..Tp sweeps, Figure 6).
func SetWorkers(n int) { parallel.SetWorkers(n) }

// Workers reports the current worker-pool size.
func Workers() int { return parallel.Workers() }

// RelabelByDegree returns a copy of the graph renumbered hubs-first — the
// ordering knob whose effect on triangle counting Appendix D.1 studies.
// Relabeling requires the CSR representation (a snapshot view is
// materialized); compressed graphs return ErrCompressed.
func (g *Graph) RelabelByDegree() (*Graph, error) {
	csr, err := g.csr("relabeling")
	if err != nil {
		return nil, err
	}
	raw := csr.Relabel(csr.DegreeOrder())
	return &Graph{adj: raw, raw: raw}, nil
}
