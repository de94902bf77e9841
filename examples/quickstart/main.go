// Quickstart: the Go rendering of Figure 4 — BFS over a graph stored in
// (simulated) NVRAM through the semi-asymmetric engine. The graph comes
// from a file: sage.Create persists it in the v2 binary container and
// sage.Open memory-maps it back, so the adjacency arrays the engine
// traverses alias the file directly — the graph is consumed in place
// from storage, exactly as Sage consumes it in place from App-Direct
// NVRAM. The engine is an immutable configuration; every call runs as
// its own session with private PSAM counters, so the example prints both
// the per-run statistics of each call and the engine's aggregate.
package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"sage"
)

func main() {
	ctx := context.Background()
	// A web-scale-shaped graph, scaled to a laptop: 2^16 vertices with
	// average degree ~16 (compare Table 2's davg range of 17-76) —
	// generated once and persisted, as sage-gen would.
	dir, err := os.MkdirTemp("", "sage-quickstart")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "web.sg")
	if err := sage.Create(path, sage.GenerateRMAT(16, 16, 1)); err != nil {
		panic(err)
	}

	// Open the stored graph. The file is memory-mapped: no byte of
	// adjacency data is copied to the heap, and the kernel pages edges in
	// as the traversals touch them.
	g, err := sage.Open(path)
	if err != nil {
		panic(err)
	}
	defer g.Close()
	fmt.Printf("graph: n=%d, m=%d arcs (%.1f MB simulated NVRAM, mmap=%v)\n",
		g.NumVertices(), g.NumEdges(), float64(g.SizeWords())*8/1e6, g.Mapped())

	// The engine in Sage's configuration: graph in App-Direct NVRAM,
	// chunked traversal, all mutable state in DRAM.
	e := sage.NewEngine(sage.WithMode(sage.AppDirect))

	// Figure 4's algorithm, as a one-liner (background context).
	parents := sage.Must(e.BFS(ctx, g, 0))

	reached := 0
	for _, p := range parents {
		if p != ^uint32(0) {
			reached++
		}
	}
	fmt.Printf("BFS from 0 reached %d vertices\n", reached)

	// The same call as an explicit session: a Run owns its own counters,
	// so its Stats describe this call alone — even when other goroutines
	// use the engine concurrently.
	run := e.NewRun()
	if _, _, err := run.PageRank(ctx, g, 1e-6, 100); err != nil {
		panic(err)
	}
	fmt.Println("PageRank run stats:", run.Stats())

	// The engine aggregates every completed run.
	st := e.Stats()
	fmt.Println("engine aggregate:  ", st)
	if st.NVRAMWrites == 0 {
		fmt.Println("semi-asymmetric discipline held: zero NVRAM writes")
	}

	// The same algorithm on the byte-compressed representation (§4.2.1):
	// the result is identical, and the graph occupies far less NVRAM.
	cg := g.Compress(64)
	e2 := sage.NewEngine(sage.WithMode(sage.AppDirect))
	parents2 := sage.Must(e2.BFS(ctx, cg, 0))
	same := true
	for v := range parents {
		if (parents[v] == ^uint32(0)) != (parents2[v] == ^uint32(0)) {
			same = false
			break
		}
	}
	fmt.Printf("compressed graph: %.1fx smaller, identical reachability: %v\n",
		float64(g.SizeWords())/float64(cg.SizeWords()), same)
}
