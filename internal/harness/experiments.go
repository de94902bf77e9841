package harness

import (
	"fmt"
	"time"

	"sage/internal/algos"
	"sage/internal/costmodel"
	"sage/internal/galois"
	"sage/internal/gbbs"
	"sage/internal/psam"
	"sage/internal/traverse"
)

// SageConfig is the paper's Sage configuration: App-Direct NVRAM,
// chunked traversal, DRAM graph filters.
func SageConfig() Config {
	return Config{Name: "Sage-NVRAM", Mode: psam.AppDirect, Strategy: traverse.Chunked}
}

// RunFig1 regenerates Figure 1: the 19 problems on a larger-than-DRAM
// graph under Sage (App-Direct), GBBS under Memory Mode, and the
// Galois-style vertex-centric baseline under Memory Mode, reporting the
// slowdown of each system relative to the fastest per problem.
func RunFig1(scale int) *Report {
	w := NewWorkload(scale)
	configs := []Config{
		SageConfig(),
		{Name: "GBBS-MemMode", Mode: psam.MemoryMode, Strategy: traverse.Blocked, Mutating: true, CacheDiv: 8},
	}
	rep := &Report{
		ID:      "fig1",
		Title:   fmt.Sprintf("NVRAM systems on larger-than-DRAM graph (RMAT scale %d: n=%d, m=%d)", scale, w.G.NumVertices(), w.G.NumEdges()),
		Columns: []string{"Problem", "Sage-NVRAM", "GBBS-MemMode", "Galois", "slow(Sage)", "slow(GBBS)", "slow(Galois)"},
	}
	// The Galois average covers the five problems Gill et al. [43]
	// implement comparably; their k-core solves a different problem
	// (single-k, §5.5) and is excluded from the average as in the paper.
	galoisComparable := map[string]bool{
		"BFS": true, "Bellman-Ford": true, "Betweenness": true,
		"Connectivity": true, "PageRank": true,
	}
	var sageVsGBBS, sageVsGalois []float64
	for _, p := range Problems() {
		costs := make([]float64, len(configs))
		for i, c := range configs {
			cost, _ := c.run(p, w)
			costs[i] = float64(cost)
		}
		galoisCost := -1.0
		if p.Galois != nil {
			g := w.graphFor(p)
			e := galois.New(g, g.SizeWords()/8)
			p.Galois(e)
			galoisCost = float64(e.Env.Cost())
		}
		best := costs[0]
		for _, c := range costs[1:] {
			best = min(best, c)
		}
		if galoisCost > 0 {
			best = min(best, galoisCost)
		}
		row := []string{p.Name, fmtCost(costs[0]), fmtCost(costs[1])}
		if galoisCost > 0 {
			row = append(row, fmtCost(galoisCost))
		} else {
			row = append(row, "-")
		}
		row = append(row, fmtRatio(costs[0]/best), fmtRatio(costs[1]/best))
		switch {
		case galoisCost > 0 && galoisComparable[p.Name]:
			row = append(row, fmtRatio(galoisCost/best))
			sageVsGalois = append(sageVsGalois, galoisCost/costs[0])
		case galoisCost > 0:
			row = append(row, fmtRatio(galoisCost/best)+"*")
		default:
			row = append(row, "-")
		}
		rep.Rows = append(rep.Rows, row)
		sageVsGBBS = append(sageVsGBBS, costs[1]/costs[0])
		rep.Metric(p.Name+"/gbbs_over_sage", costs[1]/costs[0])
		if galoisCost > 0 {
			rep.Metric(p.Name+"/galois_over_sage", galoisCost/costs[0])
		}
	}
	gm := geoMean(sageVsGBBS)
	rep.Metric("avg/gbbs_over_sage", gm)
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"Sage (App-Direct) vs GBBS (Memory Mode): %.2fx faster on average (paper: 1.87x)", gm))
	if len(sageVsGalois) > 0 {
		gm2 := geoMean(sageVsGalois)
		rep.Metric("avg/galois_over_sage", gm2)
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"Sage (App-Direct) vs Galois-style (Memory Mode), 5 comparable problems: %.2fx faster on average (paper: 1.94x)", gm2))
		rep.Notes = append(rep.Notes,
			"* Galois k-core computes a single k-core, not all corenesses; excluded from the average (§5.5).")
	}
	return rep
}

// RunFig7 regenerates Figure 7: the four in-DRAM-capable configurations
// on a graph that fits in DRAM — GBBS-DRAM, GBBS-NVRAM (libvmmalloc),
// Sage-DRAM, and Sage-NVRAM — as slowdowns against the fastest.
func RunFig7(scale int) *Report {
	w := NewWorkload(scale)
	configs := []Config{
		{Name: "GBBS-DRAM", Mode: psam.DRAMOnly, Strategy: traverse.Blocked, Mutating: true},
		{Name: "GBBS-NVRAM(libvmmalloc)", Mode: psam.NVRAMAll, Strategy: traverse.Blocked, Mutating: true},
		{Name: "Sage-DRAM", Mode: psam.DRAMOnly, Strategy: traverse.Chunked},
		{Name: "Sage-NVRAM", Mode: psam.AppDirect, Strategy: traverse.Chunked},
	}
	rep := &Report{
		ID:    "fig7",
		Title: fmt.Sprintf("DRAM vs NVRAM configurations on in-memory graph (RMAT scale %d)", scale),
		Columns: []string{"Problem", "GBBS-DRAM", "GBBS-libvmm", "Sage-DRAM", "Sage-NVRAM",
			"slowdowns (vs fastest)"},
	}
	var nvramOverDram, vmOverSage, gbbsOverSageDram []float64
	for _, p := range Problems() {
		costs := make([]float64, len(configs))
		for i, c := range configs {
			cost, _ := c.run(p, w)
			costs[i] = float64(cost)
		}
		best := costs[0]
		for _, c := range costs[1:] {
			best = min(best, c)
		}
		slows := make([]string, len(configs))
		for i := range configs {
			slows[i] = fmtRatio(costs[i] / best)
		}
		rep.Rows = append(rep.Rows, []string{
			p.Name, fmtCost(costs[0]), fmtCost(costs[1]), fmtCost(costs[2]), fmtCost(costs[3]),
			fmt.Sprintf("%s / %s / %s / %s", slows[0], slows[1], slows[2], slows[3]),
		})
		nvramOverDram = append(nvramOverDram, costs[3]/costs[2])
		vmOverSage = append(vmOverSage, costs[1]/costs[3])
		gbbsOverSageDram = append(gbbsOverSageDram, costs[0]/costs[2])
		rep.Metric(p.Name+"/sage_nvram_over_sage_dram", costs[3]/costs[2])
		rep.Metric(p.Name+"/libvmm_over_sage_nvram", costs[1]/costs[3])
		rep.Metric(p.Name+"/gbbs_dram_over_sage_dram", costs[0]/costs[2])
	}
	rep.Metric("avg/sage_nvram_over_sage_dram", geoMean(nvramOverDram))
	rep.Metric("avg/libvmm_over_sage_nvram", geoMean(vmOverSage))
	rep.Metric("avg/gbbs_dram_over_sage_dram", geoMean(gbbsOverSageDram))
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("Sage-NVRAM vs Sage-DRAM: %.2fx, by the PSAM's unit NVRAM read charge (§3.2), not a latency measurement (paper: ~1.05x on Optane)",
			geoMean(nvramOverDram)),
		fmt.Sprintf("GBBS-libvmmalloc vs Sage-NVRAM: %.2fx slower (paper: 6.69x)",
			geoMean(vmOverSage)),
		fmt.Sprintf("GBBS-DRAM vs Sage-DRAM: %.2fx (paper: Sage 1.17x faster in DRAM)",
			geoMean(gbbsOverSageDram)),
	)
	return rep
}

// RunTable1 regenerates Table 1's asymmetry claim: Sage's measured PSAM
// cost is independent of ω, while the GBBS/libvmmalloc configuration
// scales with it (Θ(ωW)).
func RunTable1(scale int) *Report {
	w := NewWorkload(scale)
	omegas := []int64{1, 4, 8, 16}
	rep := &Report{
		ID:      "table1",
		Title:   "PSAM cost as a function of write asymmetry omega",
		Columns: []string{"Problem", "System", "w=1", "w=4", "w=8", "w=16", "growth(w16/w1)"},
	}
	problems := []string{"BFS", "Connectivity", "Maximal-Matching", "Triangle-Count", "k-Core", "PageRank-Iter"}
	want := map[string]bool{}
	for _, p := range problems {
		want[p] = true
	}
	for _, p := range Problems() {
		if !want[p.Name] {
			continue
		}
		for _, sys := range []struct {
			name string
			cfg  Config
		}{
			{"Sage", SageConfig()},
			{"GBBS-NVRAM", Config{Name: "gbbs", Mode: psam.NVRAMAll, Strategy: traverse.Blocked, Mutating: true}},
		} {
			// Run once; recost under each omega (counts are fixed).
			g := w.graphFor(p)
			env := psam.NewEnv(sys.cfg.Mode)
			o := optionsFor(sys.cfg, env)
			p.Run(o, w, g)
			counts := env.Totals()
			row := []string{p.Name, sys.name}
			var first, last int64
			prof := costmodel.Optane()
			for i, om := range omegas {
				prof.Omega = om
				cost := prof.Cost(counts)
				row = append(row, fmtCost(float64(cost)))
				if i == 0 {
					first = cost
				}
				last = cost
			}
			growth := float64(last) / float64(first)
			row = append(row, fmtRatio(growth))
			rep.Rows = append(rep.Rows, row)
			rep.Metric(p.Name+"/"+sys.name+"/growth", growth)
		}
	}
	rep.Notes = append(rep.Notes,
		"Sage growth = 1.00 for every problem: zero NVRAM writes means cost independent of omega (Table 1, 'Sage Work').",
		"GBBS growth > 1: write-bearing work scales as Theta(omega*W) (Table 1, 'GBBS Work').")
	return rep
}

// optionsFor builds algorithm options for a config over an existing env.
func optionsFor(c Config, env *psam.Env) *algos.Options {
	var o *algos.Options
	if c.Mutating {
		o = gbbs.Options(env)
	} else {
		o = algos.Defaults().WithEnv(env)
	}
	o.Traverse.Strategy = c.Strategy
	return o
}

func fmtCost(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

func fmtDur(d time.Duration) string { return d.Round(time.Microsecond).String() }
