// Road-network routing: the weighted shortest-path workloads (§4.3.1) on
// a high-diameter grid — integral-weight wBFS via bucketing, Bellman-Ford,
// and widest path (bottleneck routing), comparing the two widest-path
// variants the paper provides.
package main

import (
	"context"
	"fmt"

	"sage"
)

func main() {
	ctx := context.Background()
	g, err := sage.GenerateGrid(256, 256, false).WithUniformWeights(11)
	if err != nil {
		panic(err)
	}
	fmt.Printf("road network: n=%d, m=%d (256x256 grid, weights in [1, %d))\n",
		g.NumVertices(), g.NumEdges(), log2(g.NumVertices()))

	e := sage.NewEngine(sage.WithMode(sage.AppDirect))
	src := uint32(0)
	dst := g.NumVertices() - 1 // opposite corner

	dist := sage.Must(e.WBFS(ctx, g, src))
	fmt.Printf("wBFS (bucketed): dist(corner->corner) = %d\n", dist[dst])

	bf := sage.Must(e.BellmanFord(ctx, g, src))
	fmt.Printf("bellman-ford:    dist(corner->corner) = %d (agree: %v)\n",
		bf[dst], int64(dist[dst]) == bf[dst])

	w1 := sage.Must(e.WidestPath(ctx, g, src))
	w2 := sage.Must(e.WidestPathBucketed(ctx, g, src))
	fmt.Printf("widest path:     width(corner->corner) = %d (variants agree: %v)\n",
		w1[dst], w1[dst] == w2[dst])

	deps := sage.Must(e.Betweenness(ctx, g, src))
	var maxDep float64
	var maxV uint32
	for v, d := range deps {
		if d > maxDep {
			maxDep, maxV = d, uint32(v)
		}
	}
	fmt.Printf("betweenness:     most loaded vertex %d (dependency %.1f)\n", maxV, maxDep)

	fmt.Println("PSAM stats:", e.Stats())
}

func log2(n uint32) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}
