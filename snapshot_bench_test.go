package sage_test

// Pins the empty-overlay fast path: an identity snapshot's Graph() IS the
// base handle (asserted in TestSnapshotEmptyOverlayFastPath), so the
// static/base and snapshot/empty timings below are the same code path —
// the PR 1 flat-iteration goldens apply to snapshots verbatim, with no
// regression possible by construction. snapshot/delta shows the merge
// cost updates actually pay, scoped to the touched vertices.

import (
	"path/filepath"
	"testing"

	"sage"
)

func BenchmarkSnapshotBFS(b *testing.B) {
	g := sage.GenerateRMAT(16, 16, 1)
	snapEmpty := g.Snapshot()
	batch := make([]sage.EdgeOp, 0, 2048)
	n := g.NumVertices()
	for i := uint32(0); i < 2048; i++ {
		u, v := (i*2654435761)%n, (i*40503+17)%n
		if u != v {
			batch = append(batch, sage.EdgeOp{U: u, V: v})
		}
	}
	snapDelta, err := snapEmpty.ApplyBatch(batch)
	if err != nil {
		b.Fatal(err)
	}
	e := sage.NewEngine(sage.WithMode(sage.AppDirect))
	for _, tc := range []struct {
		name string
		g    *sage.Graph
	}{
		{"static/base", g},
		{"snapshot/empty", snapEmpty.Graph()},
		{"snapshot/delta", snapDelta.Graph()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sage.Must(e.BFS(bg, tc.g, 0))
			}
		})
	}
}

// BenchmarkSnapshotCompact folds m/1000 inserted edges into a fresh
// container over CSR and byte-64 bases; B/op is the compaction heap,
// which streams the merged view and so stays vertex-proportional.
func BenchmarkSnapshotCompact(b *testing.B) {
	g := sage.GenerateRMAT(16, 16, 1)
	n := g.NumVertices()
	batch := make([]sage.EdgeOp, 0, g.NumEdges()/1000)
	for i := uint32(0); len(batch) < cap(batch); i++ {
		u, v := (i*2654435761)%n, (i*40503+17)%n
		if u != v {
			batch = append(batch, sage.EdgeOp{U: u, V: v})
		}
	}
	path := filepath.Join(b.TempDir(), "compact.sg")
	for _, base := range []struct {
		name string
		g    *sage.Graph
	}{{"csr", g}, {"byte64", g.Compress(64)}} {
		snap, err := base.g.Snapshot().ApplyBatch(batch)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(base.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := snap.Compact(path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
