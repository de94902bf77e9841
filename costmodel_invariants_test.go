package sage_test

// Invariants of the single cost vocabulary: a run's PSAMCost and the
// CostOfStats price of its counters are one number under every profile
// and mode, energy bills a Memory-Mode hit word once, and the engine
// aggregate is the sum of what its runs report.

import (
	"context"
	"errors"
	"testing"
	"time"

	"sage"
)

// TestPSAMCostIsCostOfStats: the simulator charges under the engine's
// profile and CostOfStats prices with it, so the two agree under every
// profile and mode — page-granular flash included.
func TestPSAMCostIsCostOfStats(t *testing.T) {
	g := sage.GenerateRMAT(10, 8, 7)
	for _, m := range sage.CostModels() {
		for _, mode := range []sage.Mode{sage.AppDirect, sage.MemoryMode} {
			e := sage.NewEngine(sage.WithModel(m), sage.WithMode(mode), sage.WithCache(1<<12))
			run := e.NewRun()
			if _, err := run.BFS(context.Background(), g, 0); err != nil {
				t.Fatal(err)
			}
			s := run.Stats()
			if s.PSAMCost <= 0 {
				t.Fatalf("%s/%v: PSAMCost = %d", m.Name(), mode, s.PSAMCost)
			}
			if got := e.CostOfStats(s).Cost; got != s.PSAMCost {
				t.Errorf("%s/%v: CostOfStats.Cost = %d, PSAMCost = %d", m.Name(), mode, got, s.PSAMCost)
			}
		}
	}
}

// TestMemoryModeEnergyBillsHitsOnce recomputes a Memory-Mode run's energy
// by hand from its counters: hit words are part of DRAMReads and are not
// billed a second time through CacheHits.
func TestMemoryModeEnergyBillsHitsOnce(t *testing.T) {
	g := sage.GenerateRMAT(10, 8, 7)
	m := sage.CostModelOptane()
	e := sage.NewEngine(sage.WithMode(sage.MemoryMode), sage.WithCache(1<<14))
	run := e.NewRun()
	if _, _, err := run.PageRank(context.Background(), g, 1e-6, 3); err != nil {
		t.Fatal(err)
	}
	s := run.Stats()
	if s.CacheHits == 0 || s.CacheMisses == 0 {
		t.Fatalf("want both hits and misses, got %+v", s)
	}
	want := (float64(s.DRAMReads)*m.EDRAMRead + float64(s.DRAMWrites)*m.EDRAMWrite +
		float64(s.NVRAMReads)*m.ENVRAMRead + float64(s.NVRAMWrites)*m.ENVRAMWrite +
		float64(s.CacheMisses)*m.EMiss) / 1000
	if got := e.CostOfStats(s).EnergyNJ; got != want {
		t.Fatalf("EnergyNJ = %v, want %v (a difference of CacheHits×EDRAMRead = %v is the double bill)",
			got, want, float64(s.CacheHits)*m.EDRAMRead/1000)
	}
}

// TestEngineStatsIsSumOfRuns: a Run merges only what it accumulated since
// its previous call, so with calls spread over a reused Run (one of them
// cancelled mid-run) and a fresh one, the aggregate's counters are the
// sum of the Runs' final stats and its peak their maximum.
func TestEngineStatsIsSumOfRuns(t *testing.T) {
	g := sage.GenerateRMAT(11, 8, 3)
	e := sage.NewEngine(sage.WithMode(sage.MemoryMode), sage.WithCache(1<<14))

	reused := e.NewRun()
	if _, err := reused.BFS(bg, g, 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	if _, _, err := reused.PageRank(ctx, g, 1e-300, 1<<30); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := reused.KCore(bg, g); err != nil {
		t.Fatal(err)
	}
	fresh := e.NewRun()
	if _, err := fresh.Connectivity(bg, g); err != nil {
		t.Fatal(err)
	}
	var want sage.Stats
	for _, s := range []sage.RunStats{reused.Stats(), fresh.Stats()} {
		want.Add(s.Counts)
		want.PeakDRAMWords = max(want.PeakDRAMWords, s.PeakDRAMWords)
	}
	want.PSAMCost = e.CostOfStats(want).Cost
	if got := e.Stats(); got != want {
		t.Fatalf("aggregate != sum of runs:\n got  %+v\n want %+v", got, want)
	}
}
