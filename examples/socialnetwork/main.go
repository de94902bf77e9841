// Social-network analytics: the substructure workloads the paper's
// introduction motivates (community detection, §4.3.4) — triangle
// counting, coreness decomposition, and approximate densest subgraph on a
// power-law graph, all with the graph treated as read-only NVRAM data.
package main

import (
	"context"
	"fmt"

	"sage"
)

func main() {
	ctx := context.Background()
	// A preferential-attachment network: heavy-tailed degrees like the
	// paper's com-Orkut/Twitter inputs.
	g := sage.GeneratePowerLaw(1<<15, 8, 7)
	fmt.Printf("social graph: n=%d, m=%d, max degree %d\n",
		g.NumVertices(), g.NumEdges(), maxDegree(g))

	e := sage.NewEngine(sage.WithMode(sage.AppDirect))

	// Triangle counting through the oriented graph filter (§4.3.4): the
	// work counters are the quantities Table 4 studies.
	tc := sage.Must(e.TriangleCount(ctx, g))
	fmt.Printf("triangles: %d (intersection work %d, decode work %d)\n",
		tc.Count, tc.IntersectionWork, tc.TotalWork)

	// Coreness of every vertex by bucketed peeling; kmax bounds the
	// densest community's connectivity.
	core := sage.Must(e.KCore(ctx, g))
	kmax := uint32(0)
	for _, k := range core {
		if k > kmax {
			kmax = k
		}
	}
	fmt.Printf("coreness computed for all vertices; kmax = %d\n", kmax)

	// A 2(1+eps)-approximate densest subgraph.
	dens := sage.Must(e.ApproxDensestSubgraph(ctx, g))
	members := 0
	for _, in := range dens.InSub {
		if in {
			members++
		}
	}
	fmt.Printf("densest subgraph: density %.2f over %d vertices (%d peel rounds)\n",
		dens.Density, members, dens.Rounds)

	fmt.Println("PSAM stats:", e.Stats())
}

func maxDegree(g *sage.Graph) uint32 {
	var d uint32
	for v := uint32(0); v < g.NumVertices(); v++ {
		if g.Degree(v) > d {
			d = g.Degree(v)
		}
	}
	return d
}
