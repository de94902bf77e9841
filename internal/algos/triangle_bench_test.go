package algos

import (
	"testing"

	"sage/internal/gen"
	"sage/internal/graph"
	"sage/internal/psam"
)

// BenchmarkTriangleCount times the graph-filter kernel on RMAT-18 (the
// graph the algo_csr workload runs) and on a power-law graph of the same
// size whose hubs dominate the degree sequence: the whole algorithm, the
// orientation pack alone, and the oriented sweep alone over a filter
// packed once. Runs are accounted (AppDirect), as engine runs are.
func BenchmarkTriangleCount(b *testing.B) {
	for _, in := range []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat18", gen.RMAT(18, 16, 1)},
		{"powerlaw18", gen.PowerLaw(1<<18, 16, 1)},
	} {
		o := Defaults().WithEnv(psam.NewEnv(psam.AppDirect))
		rank := make([]uint64, in.g.NumVertices())
		b.Run(in.name+"/all", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if TriangleCount(in.g, o).Count == 0 {
					b.Fatal("no triangles")
				}
			}
		})
		b.Run(in.name+"/pack", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if orientByDegree(in.g, o, rank).ActiveEdges() == 0 {
					b.Fatal("no oriented edges")
				}
			}
		})
		b.Run(in.name+"/sweep", func(b *testing.B) {
			f := orientByDegree(in.g, o, rank)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if sweepTriangles(f, o, rank).Count == 0 {
					b.Fatal("no triangles")
				}
			}
		})
	}
}
