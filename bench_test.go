// Benchmarks regenerating the paper's tables and figures as testing.B
// targets (one family per table/figure; run with
// `go test -bench=. -benchmem`). Each benchmark reports the simulated
// PSAM cost of the measured configuration as a custom metric alongside
// wall-clock time, so the cost ratios of the figures can be read straight
// off the -bench output. The full tables (all problems x all
// configurations, with the paper-vs-measured notes) are printed by
// `go run ./cmd/sage-bench`.
package sage_test

import (
	"testing"

	"sage"
	"sage/internal/algos"
	"sage/internal/costmodel"
	"sage/internal/gbbs"
	"sage/internal/harness"
	"sage/internal/psam"
	"sage/internal/semiext"
	"sage/internal/traverse"
)

// benchScale keeps -bench runs tractable: 2^14 vertices, ~500k arcs.
const benchScale = 14

// BenchmarkFig1 measures the three Figure 1 configurations on the core
// problems of the larger-than-DRAM comparison.
func BenchmarkFig1(b *testing.B) {
	w := harness.NewWorkload(benchScale)
	configs := map[string]struct {
		mode     psam.Mode
		strategy traverse.Strategy
		mutating bool
	}{
		"SageNVRAM":   {psam.AppDirect, traverse.Chunked, false},
		"GBBSMemMode": {psam.MemoryMode, traverse.Blocked, true},
	}
	problems := map[string]func(o *algos.Options){
		"BFS":          func(o *algos.Options) { algos.BFS(w.G, o, 0) },
		"Connectivity": func(o *algos.Options) { algos.Connectivity(w.G, o) },
		"KCore":        func(o *algos.Options) { algos.KCore(w.G, o) },
		"PageRankIter": func(o *algos.Options) { runPRIter(w, o) },
	}
	for cname, cfg := range configs {
		for pname, run := range problems {
			b.Run(cname+"/"+pname, func(b *testing.B) {
				var cost int64
				for i := 0; i < b.N; i++ {
					env := psam.NewEnv(cfg.mode)
					if cfg.mode == psam.MemoryMode {
						env.WithCache(w.G.SizeWords() / 8)
					}
					var o *algos.Options
					if cfg.mutating {
						o = gbbs.Options(env)
					} else {
						o = algos.Defaults().WithEnv(env)
					}
					o.Traverse.Strategy = cfg.strategy
					run(o)
					cost = env.Cost()
				}
				b.ReportMetric(float64(cost), "psam-cost")
			})
		}
	}
}

func runPRIter(w *harness.Workload, o *algos.Options) {
	n := int(w.G.NumVertices())
	prev := make([]float64, n)
	next := make([]float64, n)
	for i := range prev {
		prev[i] = 1 / float64(n)
	}
	algos.PageRankIter(w.G, o, prev, next)
}

// BenchmarkFig6 measures the Figure 6 speedup workload: BFS, connectivity
// and k-core wall-clock under 1 worker and all workers.
func BenchmarkFig6(b *testing.B) {
	g := sage.GenerateRMAT(benchScale, 16, 1)
	for _, workers := range []int{1, sage.Workers()} {
		for name, run := range map[string]func(e *sage.Engine){
			"BFS":          func(e *sage.Engine) { sage.Must(e.BFS(bg, g, 0)) },
			"Connectivity": func(e *sage.Engine) { sage.Must(e.Connectivity(bg, g)) },
			"KCore":        func(e *sage.Engine) { sage.Must(e.KCore(bg, g)) },
		} {
			b.Run(benchName(name, workers), func(b *testing.B) {
				old := sage.Workers()
				sage.SetWorkers(workers)
				defer sage.SetWorkers(old)
				e := sage.NewEngine(sage.WithMode(sage.AppDirect))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run(e)
				}
			})
		}
	}
}

func benchName(problem string, workers int) string {
	if workers == 1 {
		return problem + "/T1"
	}
	return problem + "/Tp"
}

// BenchmarkFig7 measures the four Figure 7 configurations on BFS and
// maximal matching (a traversal problem and a filter problem).
func BenchmarkFig7(b *testing.B) {
	w := harness.NewWorkload(benchScale)
	configs := []struct {
		name     string
		mode     psam.Mode
		mutating bool
	}{
		{"GBBS-DRAM", psam.DRAMOnly, true},
		{"GBBS-libvmmalloc", psam.NVRAMAll, true},
		{"Sage-DRAM", psam.DRAMOnly, false},
		{"Sage-NVRAM", psam.AppDirect, false},
	}
	for _, cfg := range configs {
		for pname, run := range map[string]func(o *algos.Options){
			"BFS":      func(o *algos.Options) { algos.BFS(w.G, o, 0) },
			"Matching": func(o *algos.Options) { algos.MaximalMatching(w.G, o) },
		} {
			b.Run(cfg.name+"/"+pname, func(b *testing.B) {
				var cost int64
				for i := 0; i < b.N; i++ {
					env := psam.NewEnv(cfg.mode)
					var o *algos.Options
					if cfg.mutating {
						o = gbbs.Options(env)
					} else {
						o = algos.Defaults().WithEnv(env)
					}
					run(o)
					cost = env.Cost()
				}
				b.ReportMetric(float64(cost), "psam-cost")
			})
		}
	}
}

// BenchmarkTable1Omega measures Sage vs GBBS cost growth across the write
// asymmetry sweep (the counts are gathered once; the benchmark measures a
// full instrumented run per iteration).
func BenchmarkTable1Omega(b *testing.B) {
	w := harness.NewWorkload(benchScale)
	for _, sys := range []struct {
		name     string
		mode     psam.Mode
		mutating bool
	}{
		{"Sage", psam.AppDirect, false},
		{"GBBS-NVRAM", psam.NVRAMAll, true},
	} {
		b.Run(sys.name, func(b *testing.B) {
			var growth float64
			for i := 0; i < b.N; i++ {
				env := psam.NewEnv(sys.mode)
				var o *algos.Options
				if sys.mutating {
					o = gbbs.Options(env)
				} else {
					o = algos.Defaults().WithEnv(env)
				}
				algos.MaximalMatching(w.G, o)
				counts := env.Totals()
				w1, w16 := costmodel.Optane(), costmodel.Optane()
				w1.Omega, w16.Omega = 1, 16
				growth = float64(w16.Cost(counts)) / float64(w1.Cost(counts))
			}
			b.ReportMetric(growth, "cost-growth-w16/w1")
		})
	}
}

// BenchmarkTable3Streaming measures the semi-external engine against Sage
// on BFS (page I/O cost vs PSAM cost).
func BenchmarkTable3Streaming(b *testing.B) {
	w := harness.NewWorkload(benchScale)
	b.Run("SemiExt/BFS", func(b *testing.B) {
		grid := semiext.NewGrid(w.G, 8)
		var cost int64
		for i := 0; i < b.N; i++ {
			grid.Dev = &semiext.Device{PageCost: semiext.DefaultPageCost}
			grid.BFS(0)
			cost = grid.Dev.Cost()
		}
		b.ReportMetric(float64(cost), "io-cost")
	})
	b.Run("Sage/BFS", func(b *testing.B) {
		var cost int64
		for i := 0; i < b.N; i++ {
			env := psam.NewEnv(psam.AppDirect)
			o := algos.Defaults().WithEnv(env)
			algos.BFS(w.G, o, 0)
			cost = env.Cost()
		}
		b.ReportMetric(float64(cost), "psam-cost")
	})
}

// BenchmarkTable4BlockSize measures triangle counting on the compressed
// graph across filter block sizes, reporting the decode work.
func BenchmarkTable4BlockSize(b *testing.B) {
	g := sage.GenerateRMAT(benchScale, 16, 5)
	for _, bs := range []int{64, 128, 256} {
		cg := g.Compress(bs)
		b.Run(benchBS(bs), func(b *testing.B) {
			var total int64
			for i := 0; i < b.N; i++ {
				e := sage.NewEngine(sage.WithMode(sage.AppDirect), sage.WithFilterBlockSize(bs))
				res := sage.Must(e.TriangleCount(bg, cg))
				total = res.TotalWork
			}
			b.ReportMetric(float64(total), "decode-work")
		})
	}
}

func benchBS(bs int) string {
	switch bs {
	case 64:
		return "FB64"
	case 128:
		return "FB128"
	default:
		return "FB256"
	}
}

// BenchmarkTable5Traversal measures BFS peak DRAM words per traversal
// strategy (sparse-only, the Appendix D.2 configuration).
func BenchmarkTable5Traversal(b *testing.B) {
	g := sage.GenerateRMAT(benchScale+1, 32, 9)
	for _, s := range []sage.Strategy{sage.Sparse, sage.Blocked, sage.Chunked} {
		b.Run(s.String(), func(b *testing.B) {
			var peak int64
			for i := 0; i < b.N; i++ {
				env := psam.NewEnv(psam.AppDirect)
				o := algos.Defaults().WithEnv(env)
				o.Traverse.Strategy = s
				o.Traverse.ForceSparse = true
				algos.BFS(g.Raw(), o, 0)
				peak = env.Space.Peak()
			}
			b.ReportMetric(float64(peak), "peak-dram-words")
		})
	}
}

// BenchmarkKCoreVariants is the §4.3.4 ablation: histogram-based peeling
// (with the dense optimization) against the fetch-and-add variant.
func BenchmarkKCoreVariants(b *testing.B) {
	g := sage.GenerateRMAT(benchScale, 16, 11)
	for _, fetchAdd := range []bool{false, true} {
		name := "Histogram"
		if fetchAdd {
			name = "FetchAdd"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := algos.Defaults()
				o.KCoreFetchAdd = fetchAdd
				algos.KCore(g.Raw(), o)
			}
		})
	}
}

// BenchmarkTraversalStrategies is the §4.1 ablation on the full
// direction-optimized BFS (not forced sparse).
func BenchmarkTraversalStrategies(b *testing.B) {
	g := sage.GenerateRMAT(benchScale, 16, 13)
	for _, s := range []sage.Strategy{sage.Chunked, sage.Blocked, sage.Sparse} {
		b.Run(s.String(), func(b *testing.B) {
			e := sage.NewEngine(sage.WithMode(sage.AppDirect), sage.WithStrategy(s))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sage.Must(e.BFS(bg, g, 0))
			}
		})
	}
}

// BenchmarkWidestPathVariants compares the paper's two widest-path
// implementations (§4.3.1).
func BenchmarkWidestPathVariants(b *testing.B) {
	g := weighted(b, sage.GenerateRMAT(benchScale, 16, 17), 5)
	b.Run("BellmanFordStyle", func(b *testing.B) {
		e := sage.NewEngine()
		for i := 0; i < b.N; i++ {
			sage.Must(e.WidestPath(bg, g, 0))
		}
	})
	b.Run("Bucketed", func(b *testing.B) {
		e := sage.NewEngine()
		for i := 0; i < b.N; i++ {
			sage.Must(e.WidestPathBucketed(bg, g, 0))
		}
	})
}
