package algos

import (
	"testing"

	"sage/internal/gen"
)

// BenchmarkPageRank times PageRank to convergence on RMAT-14 and reports
// its garbage per run, which holds still as iterations grow: the round
// state is allocated once per run.
func BenchmarkPageRank(b *testing.B) {
	g := gen.RMAT(14, 16, 1)
	o := Defaults()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, iters := PageRank(g, o, 0, 0); iters == 0 {
			b.Fatal("no iterations")
		}
	}
}

// BenchmarkColoring times Jones–Plassmann coloring on RMAT-14 and reports
// its garbage per run: per-worker palettes and candidate buckets, not one
// palette per vertex.
func BenchmarkColoring(b *testing.B) {
	g := gen.RMAT(14, 16, 1)
	o := Defaults()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(Coloring(g, o)) == 0 {
			b.Fatal("empty coloring")
		}
	}
}
