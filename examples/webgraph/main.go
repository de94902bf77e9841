// Web-graph analytics on a compressed graph: connectivity, PageRank, and
// a spanner over the byte-compressed representation (§4.2.1) — the
// configuration Sage uses for the ClueWeb/Hyperlink inputs, where
// compression is essential for fitting the graph in NVRAM and the filter
// block size is locked to the compression block size.
package main

import (
	"context"
	"fmt"

	"sage"
)

func main() {
	ctx := context.Background()
	raw := sage.GenerateRMAT(16, 24, 3)
	g := raw.Compress(64)
	fmt.Printf("web graph: n=%d, m=%d; compressed %0.1fx smaller than CSR\n",
		g.NumVertices(), g.NumEdges(),
		float64(raw.SizeWords())/float64(g.SizeWords()))

	e := sage.NewEngine(sage.WithMode(sage.AppDirect), sage.WithFilterBlockSize(64))

	labels := sage.Must(e.Connectivity(ctx, g))
	comps := map[uint32]int{}
	for _, l := range labels {
		comps[l]++
	}
	largest := 0
	for _, c := range comps {
		if c > largest {
			largest = c
		}
	}
	fmt.Printf("connectivity: %d components; largest holds %.1f%% of vertices\n",
		len(comps), 100*float64(largest)/float64(g.NumVertices()))

	ranks, iters, err := e.PageRank(ctx, g, 1e-6, 100)
	if err != nil {
		panic(err)
	}
	best, bestRank := uint32(0), 0.0
	for v, r := range ranks {
		if r > bestRank {
			best, bestRank = uint32(v), r
		}
	}
	fmt.Printf("pagerank: converged in %d iterations; top vertex %d (rank %.2e, degree %d)\n",
		iters, best, bestRank, g.Degree(best))

	spanner := sage.Must(e.Spanner(ctx, g, 0))
	fmt.Printf("O(log n)-spanner: %d edges (%.2f x n) preserving distances within O(log n)\n",
		len(spanner), float64(len(spanner))/float64(g.NumVertices()))

	fmt.Println("PSAM stats:", e.Stats())
}
