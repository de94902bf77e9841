// Ablation benchmarks for the design choices DESIGN.md calls out: the
// LDD β parameter, the Memory-Mode cache-size sensitivity behind Figure 1,
// compressed vs uncompressed traversal, and the §3.2 extension problems.
package sage_test

import (
	"fmt"
	"testing"

	"sage"
	"sage/internal/algos"
	"sage/internal/gbbs"
	"sage/internal/gfilter"
	"sage/internal/harness"
	"sage/internal/psam"
)

// BenchmarkLDDBetaSweep shows the β tradeoff behind the connectivity
// algorithms (§5.3 uses β=0.2): smaller β means fewer inter-cluster
// edges (cheaper contraction) but more growth rounds (more depth).
func BenchmarkLDDBetaSweep(b *testing.B) {
	g := sage.GenerateRMAT(benchScale, 16, 29)
	for _, beta := range []float64{0.05, 0.2, 0.5} {
		b.Run(fmt.Sprintf("beta=%.2f", beta), func(b *testing.B) {
			var inter int64
			var rounds int
			for i := 0; i < b.N; i++ {
				o := algos.Defaults()
				res := algos.LDD(g.Raw(), o, beta, 7)
				inter = algos.CountInterCluster(g.Raw(), o, res.Cluster)
				rounds = res.Rounds
			}
			b.ReportMetric(float64(inter), "inter-cluster-arcs")
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkMemoryModeCacheSweep is the Figure 1 sensitivity: GBBS under
// Memory Mode with the DRAM cache at 1/2, 1/8, and 1/32 of the graph.
// The smaller the cache (the larger the graph relative to DRAM), the
// further Memory Mode falls behind Sage's App-Direct cost.
func BenchmarkMemoryModeCacheSweep(b *testing.B) {
	w := harness.NewWorkload(benchScale)
	sageCost := func() int64 {
		env := psam.NewEnv(psam.AppDirect)
		algos.BFS(w.G, algos.Defaults().WithEnv(env), 0)
		return env.Cost()
	}()
	for _, div := range []int64{2, 8, 32} {
		b.Run(fmt.Sprintf("cacheDiv=%d", div), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				env := psam.NewEnv(psam.MemoryMode).WithCache(w.G.SizeWords() / div)
				o := gbbs.Options(env)
				algos.BFS(w.G, o, 0)
				ratio = float64(env.Cost()) / float64(sageCost)
			}
			b.ReportMetric(ratio, "memmode-over-sage")
		})
	}
}

// BenchmarkCompressedTraversal compares BFS over CSR and byte-compressed
// representations (§4.2.1): compression shrinks the NVRAM-resident graph
// at the price of block-decode work.
func BenchmarkCompressedTraversal(b *testing.B) {
	g := sage.GenerateRMAT(benchScale, 16, 31)
	cg := g.Compress(64)
	for name, gr := range map[string]*sage.Graph{"CSR": g, "Compressed64": cg} {
		b.Run(name, func(b *testing.B) {
			e := sage.NewEngine(sage.WithMode(sage.AppDirect))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sage.Must(e.BFS(bg, gr, 0))
			}
			b.ReportMetric(float64(gr.SizeWords()), "graph-words")
		})
	}
}

// BenchmarkKClique measures the §3.2 extension across clique sizes.
func BenchmarkKClique(b *testing.B) {
	g := sage.GenerateRMAT(benchScale-2, 12, 37)
	for k := 3; k <= 5; k++ {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			e := sage.NewEngine(sage.WithMode(sage.AppDirect))
			for i := 0; i < b.N; i++ {
				sage.Must(e.KCliqueCount(bg, g, k))
			}
		})
	}
}

// BenchmarkKTruss measures the boundary problem, reporting its Θ(m) peak
// state.
func BenchmarkKTruss(b *testing.B) {
	g := sage.GenerateRMAT(benchScale-2, 12, 41)
	var peak int64
	for i := 0; i < b.N; i++ {
		e := sage.NewEngine(sage.WithMode(sage.AppDirect))
		sage.Must(e.KTruss(bg, g))
		peak = e.Stats().PeakDRAMWords
	}
	b.ReportMetric(float64(peak), "peak-dram-words")
	b.ReportMetric(float64(g.NumEdges()), "arcs")
}

// BenchmarkFilterPack measures FilterEdges throughput (the §4.2 primitive)
// against the GBBS in-place packer at equal semantics.
func BenchmarkFilterPack(b *testing.B) {
	w := harness.NewWorkload(benchScale)
	pred := func(u, v uint32) bool { return (u+v)%3 != 0 }
	b.Run("SageFilter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			env := psam.NewEnv(psam.AppDirect)
			f := gfilter.New(w.G, 64, env)
			f.FilterEdges(pred)
		}
	})
	b.Run("GBBSMutate", func(b *testing.B) {
		var writes int64
		for i := 0; i < b.N; i++ {
			env := psam.NewEnv(psam.AppDirect)
			f := gbbs.NewMutFilter(w.G, 64, env)
			f.FilterEdges(pred)
			writes = env.Totals().NVRAMWrites
		}
		b.ReportMetric(float64(writes), "nvram-writes")
	})
}
