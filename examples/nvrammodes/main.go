// NVRAM-modes tour: the same analytics run under every memory
// configuration of the paper's evaluation (§5.4-§5.5), side by side —
// the programmatic version of Figure 7's comparison — plus the §3.2
// extension problems (k-clique, personalized PageRank) and the k-truss
// boundary case whose Θ(m) state the space tracker exposes.
package main

import (
	"context"
	"fmt"

	"sage"
)

func main() {
	ctx := context.Background()
	g := sage.GenerateRMAT(15, 16, 21)
	fmt.Printf("graph: n=%d m=%d\n\n", g.NumVertices(), g.NumEdges())

	fmt.Println("Connectivity under the four memory configurations:")
	configs := []struct {
		name string
		mode sage.Mode
	}{
		{"GBBS/Sage-DRAM   ", sage.DRAM},
		{"Sage-NVRAM       ", sage.AppDirect},
		{"Memory Mode      ", sage.MemoryMode},
		{"libvmmalloc-style", sage.NVRAMAll},
	}
	var base int64
	for _, c := range configs {
		opts := []sage.Option{sage.WithMode(c.mode)}
		if c.mode == sage.MemoryMode {
			opts = append(opts, sage.WithCache(g.SizeWords()/8))
		}
		e := sage.NewEngine(opts...)
		sage.Must(e.Connectivity(ctx, g))
		st := e.Stats()
		if base == 0 {
			base = st.PSAMCost
		}
		fmt.Printf("  %s  cost=%-10d (%.2fx)  nvramWrites=%d\n",
			c.name, st.PSAMCost, float64(st.PSAMCost)/float64(base), st.NVRAMWrites)
	}

	fmt.Println("\nPSAM extensions (§3.2):")
	e := sage.NewEngine(sage.WithMode(sage.AppDirect))
	c4 := sage.Must(e.KCliqueCount(ctx, g, 4))
	fmt.Printf("  4-cliques: %d (no NVRAM writes: %v)\n", c4, e.Stats().NVRAMWrites == 0)

	ppr, iters, err := e.PersonalizedPageRank(ctx, g, 0, 0.85, 1e-9, 100)
	if err != nil {
		panic(err)
	}
	var mass float64
	for _, r := range ppr {
		mass += r
	}
	fmt.Printf("  personalized PageRank from 0: converged in %d iters (mass %.3f)\n", iters, mass)

	// The boundary case: k-truss needs Θ(m) mutable state (§3.2).
	e2 := sage.NewEngine(sage.WithMode(sage.AppDirect))
	small := sage.GenerateRMAT(12, 12, 5)
	res := sage.Must(e2.KTruss(ctx, small))
	maxT := uint32(0)
	for _, t := range res.Trussness {
		if t > maxT {
			maxT = t
		}
	}
	fmt.Printf("  k-truss on n=%d: max trussness %d; peak DRAM %d words for m=%d arcs\n",
		small.NumVertices(), maxT, e2.Stats().PeakDRAMWords, small.NumEdges())
	fmt.Println("  (Theta(m) state - exactly the PSAM boundary the paper describes)")
}
