package algos

import (
	"testing"

	"sage/internal/gen"
)

// BenchmarkKCore times histogram-based peeling on RMAT-18 (the graph the
// algo_csr workload runs) and reports its garbage per run: the integer
// sort kernel, the histogram and the bucket updates are most of both.
func BenchmarkKCore(b *testing.B) {
	g := gen.RMAT(18, 16, 1)
	o := Defaults()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if MaxCore(KCore(g, o)) == 0 {
			b.Fatal("empty coreness")
		}
	}
}
