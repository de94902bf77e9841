package server

// Unit coverage of the auto-compaction hysteresis band: the decision
// function alone, away from HTTP and real compactions, so the no-flap
// property is pinned under every overhead trajectory. And of the learned
// cost estimate: its damping, and its slots under concurrent use.

import (
	"math"
	"sync"
	"testing"

	"sage"
	"sage/internal/costmodel"
)

func TestShouldAutoCompactHysteresis(t *testing.T) {
	u := newUpdates(nil, 0, Durability{}, costmodel.Optane(), 100)
	d, other := &dataset{name: "d"}, &dataset{name: "other"}

	// Ramping up below the threshold never fires.
	for _, c := range []int64{1, 40, 60, 99} {
		if u.shouldAutoCompact(d, c) {
			t.Fatalf("fired below threshold at overhead %d", c)
		}
	}
	// Crossing the high-water mark fires exactly once.
	if !u.shouldAutoCompact(d, 100) {
		t.Fatal("did not fire at the threshold")
	}
	// Hovering anywhere at or above the low-water mark stays quiet: this
	// is the no-flap band — a failed or deferred fold is not retried on
	// every batch.
	for _, c := range []int64{180, 100, 99, 60, 50} {
		if u.shouldAutoCompact(d, c) {
			t.Fatalf("flapped while disarmed at overhead %d", c)
		}
	}
	// Falling below the low-water mark re-arms (without firing)...
	if u.shouldAutoCompact(d, 49) {
		t.Fatal("fired on the re-arming dip")
	}
	// ...so the next crossing fires again.
	if !u.shouldAutoCompact(d, 100) {
		t.Fatal("did not fire after re-arming")
	}

	// Publishing the plain base (the overlay is gone: compacted or
	// cancelled out) re-arms even from the disarmed state.
	if u.shouldAutoCompact(d, 100) {
		t.Fatal("fired while disarmed")
	}
	u.publish(d, nil, 0)
	if !u.shouldAutoCompact(d, 100) {
		t.Fatal("did not fire after the plain base re-armed it")
	}

	// Datasets are independent: one dataset's disarmed state must not
	// suppress another's first crossing.
	if !u.shouldAutoCompact(other, 250) {
		t.Fatal("fresh dataset did not fire at the threshold")
	}
}

// costSeed is the engine's unlearned cost prediction of algo on g.
func costSeed(t *testing.T, eng *sage.Engine, algo string, g *sage.Graph) int64 {
	t.Helper()
	est, err := eng.PredictCost(algo, g)
	if err != nil {
		t.Fatal(err)
	}
	return est.Cost
}

// TestCostEstimateDamping: the first run sets an algorithm's estimate,
// and one run 100x off either way moves it by at most 100^(1/5) ≈ 2.5x.
func TestCostEstimateDamping(t *testing.T) {
	g := sage.GenerateRMAT(6, 4, 1)
	eng := sage.NewEngine()
	seed := costSeed(t, eng, "bfs", g)
	bound := math.Pow(100, 1.0/ewmaDiv)
	for _, off := range []float64{100, 0.01} {
		e := newEstimates()
		if got, _ := e.predict("bfs", g, eng); got != seed {
			t.Fatalf("unseen algorithm predicted %d, want the seed %d", got, seed)
		}
		e.observe("bfs", g, 100_000, 1)
		if got, _ := e.predict("bfs", g, eng); got != 100_000 {
			t.Fatalf("after one run predicted %d, want its cost 100000", got)
		}
		e.observe("bfs", g, int64(100_000*off), 1)
		got, _ := e.predict("bfs", g, eng)
		ratio := float64(got) / 100_000
		if ratio == 1 || math.Max(ratio, 1/ratio) > bound*(1+1e-3) {
			t.Fatalf("one run %gx off moved the estimate %gx, want within (1, %g]", off, ratio, bound)
		}
		if got, _ := e.predict("cc", g, eng); got != costSeed(t, eng, "cc", g) {
			t.Fatalf("a bfs run taught cc: predicted %d, want its seed", got)
		}
		if cost, _ := e.perSize(); len(cost) != 1 || cost["bfs"] <= 0 {
			t.Fatalf("perSize = %v, want bfs alone", cost)
		}
	}
}

// TestPeakEstimateIsMax: an algorithm's DRAM charge is the seed until it
// has run, then the largest peak any of its runs reached — a smaller
// peak after a larger one leaves the charge where it was.
func TestPeakEstimateIsMax(t *testing.T) {
	g := sage.GenerateRMAT(6, 4, 1)
	eng := sage.NewEngine()
	e := newEstimates()
	seed, err := sage.EstimateDRAMWords("bfs", g)
	if err != nil {
		t.Fatal(err)
	}
	if _, got := e.predict("bfs", g, eng); got != seed {
		t.Fatalf("unseen algorithm charged %d words, want the seed %d", got, seed)
	}
	for _, tc := range []struct{ peak, want int64 }{
		{500, 500}, {300, 500}, {700, 700}, {0, 700},
	} {
		e.observe("bfs", g, 1, tc.peak)
		if _, got := e.predict("bfs", g, eng); got != tc.want {
			t.Fatalf("after a peak of %d charged %d words, want %d", tc.peak, got, tc.want)
		}
	}
	if _, got := e.predict("cc", g, eng); got != seed {
		t.Fatalf("a bfs run taught cc: charged %d, want the seed %d", got, seed)
	}
	if _, peak := e.perSize(); len(peak) != 1 || peak["bfs"] != 700/graphSize(g) {
		t.Fatalf("perSize peaks = %v, want bfs alone at %g", peak, 700/graphSize(g))
	}
}

// TestCostEstimateConcurrent feeds one algorithm's slots from several
// goroutines while others predict from them and list them, as concurrent
// misses, admissions and /metrics scrapes do: the cost mean holds still
// under equal runs, and the peak ends at the largest one observed.
func TestCostEstimateConcurrent(t *testing.T) {
	g := sage.GenerateRMAT(6, 4, 1)
	eng := sage.NewEngine()
	// Every run costs the seed, so each prediction equals it whether or
	// not a run has landed yet.
	cost := costSeed(t, eng, "pagerank", g)
	e := newEstimates()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				e.observe("pagerank", g, cost, int64(1000+w*200+i))
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got, _ := e.predict("pagerank", g, eng); got != cost {
					t.Errorf("predicted %d mid-update, want %d", got, cost)
					return
				}
				_, _ = e.perSize()
			}
		}()
	}
	wg.Wait()
	if got, _ := e.predict("pagerank", g, eng); got != cost {
		t.Fatalf("after 800 runs of cost %d predicted %d", cost, got)
	}
	if _, got := e.predict("pagerank", g, eng); got != 1799 {
		t.Fatalf("after peaks up to 1799 charged %d words", got)
	}
}
