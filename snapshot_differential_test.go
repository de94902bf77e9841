package sage_test

// The batch-dynamic acceptance net: for random update batches, every
// registry algorithm on a (base + overlay) snapshot must agree with the
// same algorithm on an eagerly rebuilt static graph — across memory-mapped
// and heap-copied openings of the base — while the base arena bytes stay
// verifiably untouched and older snapshots stay valid. The oracles and
// per-algorithm checkers are shared with differential_test.go, so a new
// registry algorithm is automatically held to the dynamic contract too.

import (
	"context"
	"crypto/sha256"
	"math/rand"
	"os"
	"testing"

	"sage"
	"sage/internal/graph"
)

// edgeModel is the test's independent merged-graph reference: plain maps
// mutated alongside the snapshot, rebuilt into a CSR for the oracles.
type edgeModel struct {
	n   uint32
	adj map[uint32]map[uint32]bool
}

func modelOf(g *graph.Graph) *edgeModel {
	m := &edgeModel{n: g.NumVertices(), adj: map[uint32]map[uint32]bool{}}
	for v := uint32(0); v < m.n; v++ {
		for _, u := range g.Neighbors(v) {
			if m.adj[v] == nil {
				m.adj[v] = map[uint32]bool{}
			}
			m.adj[v][u] = true
		}
	}
	return m
}

func (m *edgeModel) apply(ops []sage.EdgeOp) {
	for _, op := range ops {
		if op.Del {
			delete(m.adj[op.U], op.V)
			delete(m.adj[op.V], op.U)
			continue
		}
		if m.adj[op.U] == nil {
			m.adj[op.U] = map[uint32]bool{}
		}
		if m.adj[op.V] == nil {
			m.adj[op.V] = map[uint32]bool{}
		}
		m.adj[op.U][op.V] = true
		m.adj[op.V][op.U] = true
	}
}

// rebuild turns the model into a static CSR (symmetrized by construction).
func (m *edgeModel) rebuild() *graph.Graph {
	var edges []graph.Edge
	for v, nghs := range m.adj {
		for u := range nghs {
			if v < u {
				edges = append(edges, graph.Edge{U: v, V: u})
			}
		}
	}
	return graph.FromEdges(m.n, edges, graph.BuildOpts{Symmetrize: true})
}

// has reports edge presence, treating the model as authoritative.
func (m *edgeModel) has(u, v uint32) bool { return m.adj[u][v] }

// randomBatch builds a mixed batch biased toward edges that exist (for
// deletes) and pairs that do not (for inserts), so both kinds land.
func randomBatch(rng *rand.Rand, m *edgeModel, size int) []sage.EdgeOp {
	var ops []sage.EdgeOp
	for len(ops) < size {
		u, v := uint32(rng.Intn(int(m.n))), uint32(rng.Intn(int(m.n)))
		if u == v {
			continue
		}
		ops = append(ops, sage.EdgeOp{U: u, V: v, Del: m.has(u, v) && rng.Intn(2) == 0})
	}
	return ops
}

// bipartiteBatch builds update ops that respect the set-cover layout
// (sets [0, numSets) on one side, elements above).
func bipartiteBatch(rng *rand.Rand, m *edgeModel, numSets uint32, size int) []sage.EdgeOp {
	var ops []sage.EdgeOp
	for len(ops) < size {
		s := uint32(rng.Intn(int(numSets)))
		e := numSets + uint32(rng.Intn(int(m.n-numSets)))
		ops = append(ops, sage.EdgeOp{U: s, V: e, Del: m.has(s, e) && rng.Intn(2) == 0})
	}
	return ops
}

// csrChecksum hashes a CSR's structural arrays — the base-unmodified
// witness for the in-memory view.
func csrChecksum(g *graph.Graph) [32]byte {
	h := sha256.New()
	for v := uint32(0); v < g.NumVertices(); v++ {
		nghs := g.Neighbors(v)
		b := make([]byte, 0, 4*len(nghs))
		for _, u := range nghs {
			b = append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
		}
		h.Write(b)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func fileChecksum(t *testing.T, path string) [32]byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(b)
}

// equalCSR asserts two CSRs have identical merged structure.
func equalCSR(t *testing.T, got, want *graph.Graph, what string) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: shape (%d,%d) want (%d,%d)", what,
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for v := uint32(0); v < want.NumVertices(); v++ {
		a, b := got.Neighbors(v), want.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("%s: degree(%d)=%d want %d", what, v, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: adjacency of %d differs at %d", what, v, i)
			}
		}
	}
}

// TestSnapshotDifferentialRegistry is the acceptance criterion: random
// update batches against two seeded shapes, every registry algorithm on
// the snapshot checked against the oracles of an eagerly rebuilt static
// graph, on both the memory-mapped and heap-copied openings of the base.
func TestSnapshotDifferentialRegistry(t *testing.T) {
	shapes := []struct {
		name  string
		build func() *sage.Graph
	}{
		{"rmat", func() *sage.Graph { return sage.GenerateRMAT(9, 8, 0x51f) }},
		{"erdos", func() *sage.Graph { return sage.GenerateErdosRenyi(400, 1400, 0x52f) }},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			dir := t.TempDir()
			base := sh.build()
			wbase := weighted(t, base, 0xfeed)
			scBase, numSets := setCoverInstance(base)

			for _, op := range []struct {
				name     string
				copyOpen bool
			}{{"mmap", false}, {"copy", true}} {
				t.Run(op.name, func(t *testing.T) {
					g2 := persistAndOpen(t, dir, "g-"+op.name, base, false, op.copyOpen)
					wg2 := persistAndOpen(t, dir, "wg-"+op.name, wbase, false, op.copyOpen)
					sc2 := persistAndOpen(t, dir, "sc-"+op.name, scBase, false, op.copyOpen)
					paths := map[string]string{
						"g":  dir + "/g-" + op.name + ".sg",
						"wg": dir + "/wg-" + op.name + ".sg",
						"sc": dir + "/sc-" + op.name + ".sg",
					}
					fileSums := map[string][32]byte{}
					for k, p := range paths {
						fileSums[k] = fileChecksum(t, p)
					}
					baseSum := csrChecksum(g2.RawCSR())

					// Two sequential batches; the same ops drive the model
					// (the independent reference) and both topology twins.
					rng := rand.New(rand.NewSource(0x5a9e))
					m := modelOf(g2.RawCSR())
					scModel := modelOf(sc2.RawCSR())
					snap, wsnap := g2.Snapshot(), wg2.Snapshot()
					first := snap // the elder snapshot, checked at the end
					firstRebuild := m.rebuild()
					var err error
					for b := 0; b < 2; b++ {
						batch := randomBatch(rng, m, 120)
						if snap, err = snap.ApplyBatch(batch); err != nil {
							t.Fatal(err)
						}
						if wsnap, err = wsnap.ApplyBatch(batch); err != nil {
							t.Fatal(err)
						}
						m.apply(batch)
					}
					scBatch := bipartiteBatch(rng, scModel, numSets, 60)
					scSnap, err := sc2.Snapshot().ApplyBatch(scBatch)
					if err != nil {
						t.Fatal(err)
					}
					scModel.apply(scBatch)

					// The eager rebuilds: oracles run on these.
					eager := m.rebuild()
					scEager := scModel.rebuild()
					if snap.NumEdges() != eager.NumEdges() {
						t.Fatalf("snapshot m=%d, eager m=%d", snap.NumEdges(), eager.NumEdges())
					}
					// Materialize must agree with the independent rebuild,
					// for the unweighted and the weighted twin.
					equalCSR(t, snap.Materialize().RawCSR(), eager, "materialize")
					equalCSR(t, wsnap.Materialize().RawCSR(), eager, "materialize (weighted)")

					weager := eagerWeighted(t, wsnap)
					o := newOracles(eager, weager, scEager, numSets)
					e := sage.NewEngine()
					for _, a := range sage.Algorithms() {
						input, args := snap.Graph(), sage.AlgoArgs{}
						if a.Weighted {
							input = wsnap.Graph()
						}
						if a.SetCover {
							input, args.NumSets = scSnap.Graph(), numSets
						}
						if a.Name == "pagerank" {
							args.Eps = 1e-10 // match the oracle's threshold
						}
						res, err := e.RunAlgorithm(context.Background(), a.Name, input, args)
						if err != nil {
							t.Fatalf("%s: %v", a.Name, err)
						}
						checkers[a.Name](t, o, res)
					}

					// The base was never written: neither the files on disk
					// nor the opened arrays moved a byte.
					for k, p := range paths {
						if fileChecksum(t, p) != fileSums[k] {
							t.Fatalf("base file %s modified by updates", k)
						}
					}
					if csrChecksum(g2.RawCSR()) != baseSum {
						t.Fatal("base adjacency arrays modified by updates")
					}
					// The elder identity snapshot still serves the original
					// graph.
					equalCSR(t, first.Materialize().RawCSR(), firstRebuild, "elder snapshot")
				})
			}
		})
	}
}

// eagerWeighted rebuilds the weighted snapshot's merged view statically,
// via the public Materialize (already cross-checked against the model's
// structure above), preserving weights for the weighted oracles.
func eagerWeighted(t *testing.T, wsnap *sage.Snapshot) *graph.Graph {
	t.Helper()
	return wsnap.Materialize().RawCSR()
}

// TestSnapshotEmptyOverlayFastPath pins the zero-cost property: an
// identity snapshot hands algorithms the base graph itself (same handle,
// same flat zero-copy arrays), and a batch that cancels out returns to
// exactly that.
func TestSnapshotEmptyOverlayFastPath(t *testing.T) {
	g := sage.GenerateRMAT(8, 8, 7)
	snap := g.Snapshot()
	if snap.Graph() != g {
		t.Fatal("identity snapshot does not expose the base handle")
	}
	if snap.DeltaWords() != 0 {
		t.Fatal("identity snapshot reports delta words")
	}
	// The insert must add an edge: one the generator already drew would
	// leave the overlay empty and fail the check below for the wrong reason.
	u, v := absentEdge(t, g.RawCSR())
	s2, err := snap.ApplyBatch([]sage.EdgeOp{{U: u, V: v}})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Graph() == g {
		t.Fatal("non-empty overlay still exposes the base handle")
	}
	s3, err := s2.ApplyBatch([]sage.EdgeOp{{U: u, V: v, Del: true}})
	if err != nil {
		t.Fatal(err)
	}
	if s3.Graph() != g {
		t.Fatal("cancelled-out overlay does not return to the base handle")
	}
	if snap.Materialize() != g {
		t.Fatal("identity Materialize copies the base")
	}
}

// absentEdge returns the first pair (u, v), u < v, that is not an edge
// of g.
func absentEdge(t *testing.T, g *graph.Graph) (uint32, uint32) {
	t.Helper()
	n := g.NumVertices()
	for u := uint32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !g.HasEdge(u, v) {
				return u, v
			}
		}
	}
	t.Fatal("complete graph: no absent edge")
	return 0, 0
}

// TestSnapshotRejectsBadOps pins the public validation contract.
func TestSnapshotRejectsBadOps(t *testing.T) {
	g := sage.GenerateChain(8)
	snap := g.Snapshot()
	for _, bad := range [][]sage.EdgeOp{
		{{U: 0, V: 8}},
		{{U: 3, V: 3}},
		{{U: 0, V: 2, W: 9}},
	} {
		if _, err := snap.ApplyBatch(bad); err == nil {
			t.Fatalf("batch %v accepted", bad)
		}
	}
}
