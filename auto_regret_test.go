package sage_test

import (
	"fmt"
	"testing"

	"sage"
)

// TestAutoRegret pins that the Auto strategy chooses well, not only
// correctly: on every generator family, registry algorithm and built-in
// cost model, Auto's PSAM cost stays within a small factor of the best
// fixed strategy priced under the same model. It runs at one worker so
// every cell is deterministic.
func TestAutoRegret(t *testing.T) {
	defer sage.SetWorkers(sage.Workers())
	sage.SetWorkers(1)

	// K64,64: every vertex of one side adjacent to every vertex of the
	// other, so a single round reaches half the graph.
	var kbip []sage.Edge
	for u := uint32(0); u < 64; u++ {
		for v := uint32(64); v < 128; v++ {
			kbip = append(kbip, sage.Edge{U: u, V: v})
		}
	}
	families := []struct {
		name string
		g    *sage.Graph
	}{
		{"rmat", sage.GenerateRMAT(12, 16, 3)},
		{"powerlaw", sage.GeneratePowerLaw(8192, 8, 3)},
		{"grid", sage.GenerateGrid(64, 64, false)},
		{"chain", sage.GenerateChain(4096)},
		{"star", sage.GenerateStar(4096)},
		{"k64x64", sage.FromEdges(128, kbip)},
	}
	fixed := []sage.Strategy{sage.Chunked, sage.Blocked, sage.Sparse}
	cost := func(p sage.CostModel, s sage.Strategy, name string, g *sage.Graph) int64 {
		res, err := sage.NewEngine(sage.WithModel(p), sage.WithStrategy(s)).RunAlgorithm(bg, name, g, sage.AlgoArgs{})
		if err != nil {
			t.Fatalf("%s under %s/%v: %v", name, p.Name(), s, err)
		}
		return res.Stats.PSAMCost
	}

	for _, fam := range families {
		wg := weighted(t, fam.g, 7)
		for _, algo := range sage.Algorithms() {
			if algo.SetCover {
				continue
			}
			g := fam.g
			if algo.Weighted {
				g = wg
			}
			for _, p := range sage.CostModels() {
				cell := fmt.Sprintf("%s/%s/%s", fam.name, algo.Name, p.Name())
				auto := cost(p, sage.Auto, algo.Name, g)
				best, bestS := int64(-1), sage.Chunked
				var chunked int64
				for _, s := range fixed {
					c := cost(p, s, algo.Name, g)
					if s == sage.Chunked {
						chunked = c
					}
					if best < 0 || c < best {
						best, bestS = c, s
					}
				}
				// LDD's pull scan runs until it finds a claimed neighbour,
				// which is longer than the m/20 early exit predictDense
				// assumes, so Auto flips to dense a little early there.
				bound := 1.10
				if algo.Name == "ldd" {
					bound = 1.25
				}
				if float64(auto) > bound*float64(best) {
					t.Errorf("%s: auto %d is over %.2fx the best fixed strategy (%v, %d)",
						cell, auto, bound, bestS, best)
				}
				if auto < best {
					t.Logf("%s: auto %d beats every fixed strategy (best %v, %d: %.3fx)",
						cell, auto, bestS, best, float64(auto)/float64(best))
				}
				// The win that justifies Auto: Bellman-Ford on a grid has
				// many mid-size frontiers where pulling is far cheaper.
				if fam.name == "grid" && algo.Name == "bellmanford" {
					if float64(auto) > 0.25*float64(chunked) {
						t.Errorf("%s: auto %d is over 0.25x chunked %d", cell, auto, chunked)
					}
				}
			}
		}
	}
}
