package sage_test

import (
	"context"
	"testing"

	"sage"
)

// completeBipartite builds K_{a,b}, the set-cover-shaped family.
func completeBipartite(a, b uint32) *sage.Graph {
	edges := make([]sage.Edge, 0, int(a)*int(b))
	for u := uint32(0); u < a; u++ {
		for v := uint32(0); v < b; v++ {
			edges = append(edges, sage.Edge{U: u, V: a + v})
		}
	}
	return sage.FromEdges(a+b, edges)
}

// TestDRAMSeedBoundsPeak holds the admission gate's first-sight charge to
// what it stands for: on every generator family at n ≈ 2¹¹, no registry
// algorithm's measured peak DRAM residency exceeds
// sage.EstimateDRAMWords. Weighted algorithms run on a weighted copy, as
// the benchmark harness runs them; each runs at one and at four workers,
// since per-worker scratch moves the peak.
func TestDRAMSeedBoundsPeak(t *testing.T) {
	families := []struct {
		name string
		g    *sage.Graph
	}{
		{"rmat", sage.GenerateRMAT(11, 16, 7)},
		{"powerlaw", sage.GeneratePowerLaw(2048, 8, 7)},
		{"grid", sage.GenerateGrid(32, 64, false)},
		{"chain", sage.GenerateChain(2048)},
		{"star", sage.GenerateStar(2048)},
		{"bipartite", completeBipartite(64, 1984)},
	}
	defer sage.SetWorkers(sage.Workers())
	worst, at := 0.0, ""
	for _, f := range families {
		weighted, err := f.g.WithUniformWeights(3)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range sage.Algorithms() {
			g, args := f.g, sage.AlgoArgs{}
			if a.Weighted {
				g = weighted
			}
			if a.SetCover {
				args.NumSets = 256
			}
			seed, err := sage.EstimateDRAMWords(a.Name, g)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				sage.SetWorkers(workers)
				res, err := sage.NewEngine().RunAlgorithm(context.Background(), a.Name, g, args)
				if err != nil {
					t.Fatalf("%s/%s: %v", f.name, a.Name, err)
				}
				peak := res.Stats.PeakDRAMWords
				if r := float64(peak) / float64(seed); r > worst {
					worst, at = r, f.name+"/"+a.Name
				}
				if peak > seed {
					t.Errorf("%s/%s at %d workers: peak %d DRAM words exceeds the seed %d",
						f.name, a.Name, workers, peak, seed)
				}
			}
		}
	}
	t.Logf("largest peak / seed: %.2f (%s)", worst, at)
}
