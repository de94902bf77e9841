package sage_test

// Golden tests for the pluggable hardware cost model: each built-in
// profile's predicted cost over the PSAM regression workloads is pinned.
// Any drift here is a pricing change and must be deliberate.

import (
	"fmt"
	"testing"

	"sage"
)

// regressWorkloads runs the four reference workloads once each on the
// fixed seed graph (R-MAT logN=11, avgDeg=8, seed=7) at one worker and
// returns their per-workload counters. The counters are model-independent
// — a profile only changes how they are priced — so one simulation run
// feeds every profile's golden.
func regressWorkloads(t *testing.T) map[string]sage.RunStats {
	t.Helper()
	old := sage.Workers()
	defer sage.SetWorkers(old)
	sage.SetWorkers(1)

	g := sage.GenerateRMAT(11, 8, 7)
	e := sage.NewEngine(sage.WithStrategy(sage.Chunked), sage.WithSeed(7))
	out := map[string]sage.RunStats{}
	run := func(name string, fn func()) {
		e.ResetStats()
		fn()
		out[name] = e.Stats()
	}
	run("bfs", func() { sage.Must(e.BFS(bg, g, 0)) })
	run("pagerankiter", func() {
		n := int(g.NumVertices())
		prev := make([]float64, n)
		next := make([]float64, n)
		for i := range prev {
			prev[i] = 1 / float64(n)
		}
		sage.Must(e.PageRankIter(bg, g, prev, next))
	})
	run("connectivity", func() { sage.Must(e.Connectivity(bg, g)) })
	run("kcore", func() { sage.Must(e.KCore(bg, g)) })
	return out
}

// goldenModelCosts pins CostOfStats for every built-in profile on the
// regression workloads. The optane row must match the PSAMCost goldens in
// psam_regress_test.go (csr/chunked/*): the default profile re-prices
// nothing. The kcore rows moved with those goldens' kcore rows, when the
// peeling histogram's dense rounds became an edgeMap, and the
// connectivity rows with its rows, when the inter-cluster collection pass
// came to bill its m list reads and m cluster-label reads.
var goldenModelCosts = map[string]int64{
	"optane/bfs":          14908,
	"optane/pagerankiter": 27608,
	"optane/connectivity": 75918,
	"optane/kcore":        132038,
	// dram matches optane on these workloads: with zero NVRAM writes and
	// zero cache misses the two profiles price reads identically.
	"dram/bfs":          14908,
	"dram/pagerankiter": 27608,
	"dram/connectivity": 75918,
	"dram/kcore":        132038,
	// reram doubles the large-memory read charge.
	"reram/bfs":          24568,
	"reram/pagerankiter": 40388,
	"reram/connectivity": 113753,
	"reram/kcore":        197658,
	// flash bills scattered large-memory reads by the page.
	"flash/bfs":          44160,
	"flash/pagerankiter": 66028,
	"flash/connectivity": 189635,
	"flash/kcore":        330610,
}

func TestCostModelGoldenCosts(t *testing.T) {
	stats := regressWorkloads(t)
	for _, m := range sage.CostModels() {
		model := m
		e := sage.NewEngine(sage.WithModel(model))
		for wl, s := range stats {
			name := fmt.Sprintf("%s/%s", model.Name(), wl)
			got := e.CostOfStats(s).Cost
			want, ok := goldenModelCosts[name]
			if !ok {
				t.Errorf("missing golden %q: %d,", name, got)
				continue
			}
			if got != want {
				t.Errorf("%s: cost drifted: got %d want %d", name, got, want)
			}
		}
	}
}

// goldenPredictions pins PredictCost — the seed estimate the server
// gates on until a dataset has learned an algorithm's cost — per profile
// on the regression graph. The seed is one edge pass whatever the
// algorithm, so one row per profile covers the whole registry.
var goldenPredictions = map[string]int64{
	// The seed charges no NVRAM writes, so dram predicts like optane.
	"optane": 37848,
	"dram":   37848,
	"reram":  54724,
	"flash":  88556,
}

func TestCostModelGoldenPredictions(t *testing.T) {
	g := sage.GenerateRMAT(11, 8, 7)
	for _, m := range sage.CostModels() {
		model := m
		e := sage.NewEngine(sage.WithModel(model))
		want, ok := goldenPredictions[model.Name()]
		for _, algo := range sage.AlgorithmNames() {
			est, err := e.PredictCost(algo, g)
			if err != nil {
				t.Fatalf("PredictCost(%s): %v", algo, err)
			}
			name := fmt.Sprintf("%s/%s", model.Name(), algo)
			if !ok {
				t.Fatalf("missing golden %q: %d,", model.Name(), est.Cost)
			}
			if est.Cost != want {
				t.Errorf("%s: prediction drifted: got %d want %d", name, est.Cost, want)
			}
			if est.Model != model.Name() {
				t.Errorf("%s: estimate names model %q", name, est.Model)
			}
			if est.EnergyNJ <= 0 {
				t.Errorf("%s: non-positive energy projection %v", name, est.EnergyNJ)
			}
		}
		if _, err := e.PredictCost("no-such-algo", g); err == nil {
			t.Errorf("%s: PredictCost accepted an unknown algorithm", model.Name())
		}
	}
}
