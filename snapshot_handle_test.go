package sage_test

// A snapshot's merged handle is neither CSR nor byte-compressed, and the
// Graph methods that convert representations must treat it as the
// uncompressed graph it stands for: Compress encodes it, the CSR-only
// operations materialize it, and Create writes it in any format.

import (
	"errors"
	"path/filepath"
	"testing"

	"sage"
	"sage/internal/graph"
)

// updatedSnapshot returns a snapshot of g with a few inserts and deletes.
func updatedSnapshot(t *testing.T, g *sage.Graph) *sage.Snapshot {
	t.Helper()
	csr := g.RawCSR()
	ops := []sage.EdgeOp{{U: 1, V: 700}, {U: 3, V: 900}, {U: 5, V: 11}}
	for _, v := range []uint32{0, 2, 4} {
		if nghs := csr.Neighbors(v); len(nghs) > 0 {
			ops = append(ops, sage.EdgeOp{U: v, V: nghs[0], Del: true})
		}
	}
	snap, err := g.Snapshot().ApplyBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestSnapshotHandleCompresses(t *testing.T) {
	snap := updatedSnapshot(t, sage.GenerateRMAT(10, 8, 1))
	cg := snap.Graph().Compress(64)
	if !cg.Compressed() {
		t.Fatal("Compress(64) on a snapshot handle returned an uncompressed graph")
	}
	var s graph.Scratch
	flat := graph.NewFlat(cg.Raw())
	want := snap.Materialize().RawCSR()
	for v := range want.NumVertices() {
		got, _ := flat.Full(v, &s)
		if !equalUint32s(got, want.Neighbors(v)) {
			t.Fatalf("compressed adjacency of %d differs from the materialized view", v)
		}
	}
	// The Ligra text writer streams the same merged view.
	dir := t.TempDir()
	if err := sage.Create(filepath.Join(dir, "c.adj"), snap.Graph()); err != nil {
		t.Fatal(err)
	}
	back, err := sage.Open(filepath.Join(dir, "c.adj"))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	equalCSR(t, back.RawCSR(), want, "adjacency text of the snapshot handle")
}

func equalUint32s(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCSROnlyOpsOnEveryHandle pins which handles the CSR-only operations
// accept: CSR graphs and snapshot views do (the view is materialized),
// byte-compressed graphs return ErrCompressed.
func TestCSROnlyOpsOnEveryHandle(t *testing.T) {
	g := sage.GenerateRMAT(10, 8, 2)
	snap := updatedSnapshot(t, g)
	for _, c := range []struct {
		name string
		g    *sage.Graph
		want *graph.Graph // the CSR the operations act on; nil: ErrCompressed
	}{
		{"csr", g, g.RawCSR()},
		{"byte64", g.Compress(64), nil},
		{"overlay", snap.Graph(), snap.Materialize().RawCSR()},
	} {
		t.Run(c.name, func(t *testing.T) {
			wg, werr := c.g.WithUniformWeights(7)
			rg, rerr := c.g.RelabelByDegree()
			if c.want == nil {
				if !errors.Is(werr, sage.ErrCompressed) || !errors.Is(rerr, sage.ErrCompressed) {
					t.Fatalf("want ErrCompressed, got %v and %v", werr, rerr)
				}
				return
			}
			if werr != nil || rerr != nil {
				t.Fatalf("WithUniformWeights: %v, RelabelByDegree: %v", werr, rerr)
			}
			if !wg.Weighted() {
				t.Fatal("WithUniformWeights returned an unweighted graph")
			}
			equalCSR(t, wg.RawCSR(), c.want, "weighted copy")
			if rg.NumEdges() != c.want.NumEdges() || rg.Degree(0) != c.want.MaxDegree() {
				t.Fatalf("relabeled graph has %d arcs and deg(0) = %d, want %d and the max degree %d",
					rg.NumEdges(), rg.Degree(0), c.want.NumEdges(), c.want.MaxDegree())
			}
		})
	}
}
