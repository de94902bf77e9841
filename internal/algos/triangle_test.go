package algos_test

import (
	"fmt"
	"testing"

	"sage/internal/algos"
	"sage/internal/compress"
	"sage/internal/delta"
	"sage/internal/gbbs"
	"sage/internal/gen"
	"sage/internal/graph"
	"sage/internal/parallel"
	"sage/internal/psam"
	"sage/internal/refalgo"
)

// snapshotOf returns g under an overlay that deletes one edge of every
// third vertex and inserts one at every fifth, and the merged view
// materialized as a plain graph for the reference count.
func snapshotOf(t *testing.T, g *graph.Graph) (graph.Adj, *graph.Graph) {
	t.Helper()
	n := g.NumVertices()
	var ops []delta.Op
	for v := uint32(0); v < n; v++ {
		if nghs := g.Neighbors(v); v%3 == 0 && len(nghs) > 0 {
			ops = append(ops, delta.Op{U: v, V: nghs[len(nghs)/2], Del: true})
		}
		if u := (v*13 + 5) % n; v%5 == 0 && u != v {
			ops = append(ops, delta.Op{U: v, V: u})
		}
	}
	ov, err := delta.New(g).Apply(ops)
	if err != nil {
		t.Fatal(err)
	}
	var edges []graph.Edge
	var s graph.Scratch
	for v := uint32(0); v < n; v++ {
		nghs, _ := ov.Slice(v, 0, ov.Degree(v), &s)
		for _, u := range nghs {
			edges = append(edges, graph.Edge{U: v, V: u})
		}
	}
	return ov, graph.FromEdges(n, edges, graph.BuildOpts{})
}

// TestTriangleCountDegreeSkewFamilies runs the graph-filter kernel over
// the degree-skew extremes — one hub, two dense sides, no skew at all,
// power-law, dense random, RMAT — in every representation it can be
// handed: CSR, byte-compressed at three block sizes, a snapshot over an
// overlay, and the GBBS mutable image. Every count must equal the serial
// reference and the 3-clique count; and Table 4 must hold on each family:
// intersection work is a property of the oriented graph (the same on
// every representation of it), total work only grows with the block size.
func TestTriangleCountDegreeSkewFamilies(t *testing.T) {
	old := parallel.Workers()
	defer parallel.SetWorkers(old)
	parallel.SetWorkers(4)
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"star", gen.Star(400)},
		{"bipartite", gen.CompleteBipartite(24, 40)},
		{"grid", gen.Grid2D(18, 18, true)},
		{"powerlaw", gen.PowerLaw(2000, 10, 3)},
		{"dense-er", gen.ErdosRenyi(220, 9000, 5)},
		{"rmat", gen.RMAT(10, 14, 7)},
	}
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			want := refalgo.Triangles(fam.g)
			run := func(where string, g graph.Adj, o *algos.Options, want int64) *algos.TriangleResult {
				t.Helper()
				res := algos.TriangleCount(g, o)
				if res.Count != want {
					t.Fatalf("%s: %d triangles, want %d", where, res.Count, want)
				}
				if k3 := algos.KCliqueCount(g, o, 3); k3 != want {
					t.Fatalf("%s: %d 3-cliques, want %d", where, k3, want)
				}
				if w := o.Env.Totals().NVRAMWrites; w != 0 && o.NewFilter == nil {
					t.Fatalf("%s: %d NVRAM writes through the graph filter", where, w)
				}
				return res
			}
			sage := func(fb int) *algos.Options {
				o := algos.Defaults().WithEnv(psam.NewEnv(psam.AppDirect))
				o.FB = fb
				return o
			}
			csr := run("csr", fam.g, sage(64), want)
			if mut := run("gbbs", fam.g, gbbs.Options(psam.NewEnv(psam.AppDirect)), want); mut.IntersectionWork != csr.IntersectionWork {
				t.Fatalf("gbbs: intersection work %d, csr %d", mut.IntersectionWork, csr.IntersectionWork)
			}
			var prevTotal int64
			for _, bs := range []int{64, 128, 256} {
				where := fmt.Sprintf("byte/%d", bs)
				res := run(where, compress.Compress(fam.g, bs), sage(bs), want)
				if res.IntersectionWork != csr.IntersectionWork {
					t.Fatalf("%s: intersection work %d, csr %d", where, res.IntersectionWork, csr.IntersectionWork)
				}
				if res.TotalWork < prevTotal || res.TotalWork < csr.TotalWork {
					t.Fatalf("%s: total work %d fell below %d (smaller blocks) or %d (csr)", where, res.TotalWork, prevTotal, csr.TotalWork)
				}
				prevTotal = res.TotalWork
			}
			snap, merged := snapshotOf(t, fam.g)
			flat := run("materialized", merged, sage(64), refalgo.Triangles(merged))
			if over := run("snapshot", snap, sage(64), flat.Count); over.IntersectionWork != flat.IntersectionWork || over.TotalWork != flat.TotalWork {
				t.Fatalf("snapshot: work %+v, materialized %+v", over, flat)
			}
		})
	}
}
