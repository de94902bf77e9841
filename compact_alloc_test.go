//go:build !race

// The race detector's instrumentation allocates, so these counts only hold
// without it.

package sage_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"sage"
)

// TestCompactHeapIsVertexProportional pins that compaction streams the
// merged view into the container: at one worker its heap is O(n) words
// plus fixed I/O buffers, independent of the edge count, and the file is
// byte-identical to Create of the eagerly rebuilt graph.
func TestCompactHeapIsVertexProportional(t *testing.T) {
	defer sage.SetWorkers(sage.Workers())
	sage.SetWorkers(1)
	const logN = 14
	n := uint64(1) << logN
	limit := 48*(n+1) + 4<<20
	dir := t.TempDir()
	for _, bs := range []int{0, 64} {
		for _, weighted := range []bool{false, true} {
			var alloc [2]uint64
			for i, deg := range []int{8, 64} {
				name := fmt.Sprintf("deg%d/bs%d/weighted=%v", deg, bs, weighted)
				snap, ref := compactCase(t, logN, deg, bs, weighted)
				path := filepath.Join(dir, "compact.sg")
				var a, b runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&a)
				if err := snap.Compact(path); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&b)
				alloc[i] = b.TotalAlloc - a.TotalAlloc
				t.Logf("%s: %d arcs, Compact allocated %d B", name, snap.NumEdges(), alloc[i])
				if alloc[i] > limit {
					t.Errorf("%s: Compact allocated %d B, want at most 48(n+1) + 4 MiB = %d B", name, alloc[i], limit)
				}
				refPath := filepath.Join(dir, "ref.sg")
				if err := sage.Create(refPath, ref); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(readFile(t, path), readFile(t, refPath)) {
					t.Errorf("%s: the compacted container differs from Create of the rebuilt graph", name)
				}
			}
			if alloc[1] > alloc[0]+1<<20 {
				t.Errorf("bs%d/weighted=%v: Compact allocated %d B at degree 64 and %d B at degree 8; the gap should stay under 1 MiB",
					bs, weighted, alloc[1], alloc[0])
			}
		}
	}
}

// compactCase builds an RMAT snapshot with m/1000 inserted edges and m/4000
// deleted ones over a CSR (bs 0) or byte-compressed base, and the same
// merged graph rebuilt eagerly from its edge list in the base's
// representation.
func compactCase(t *testing.T, logN, deg, bs int, weighted bool) (*sage.Snapshot, *sage.Graph) {
	t.Helper()
	csr := sage.GenerateRMAT(logN, deg, uint64(deg))
	if weighted {
		csr = sage.Must(csr.WithUniformWeights(3))
	}
	raw := csr.RawCSR()
	type key struct{ u, v uint32 }
	model := map[key]int32{}
	for v := range raw.NumVertices() {
		for i, u := range raw.Neighbors(v) {
			if v < u {
				model[key{v, u}] = 1
				if weighted {
					model[key{v, u}] = raw.NeighborWeights(v)[i]
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(int64(deg)))
	n := int(raw.NumVertices())
	var ops []sage.EdgeOp
	for len(ops) < int(raw.NumEdges()/1000) {
		u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		if u == v {
			continue
		}
		op := sage.EdgeOp{U: min(u, v), V: max(u, v), W: 1}
		if weighted {
			op.W = int32(1 + rng.Intn(9))
		}
		model[key{op.U, op.V}] = op.W
		ops = append(ops, op)
	}
	for k := range model {
		if len(ops) >= int(raw.NumEdges()/1000+raw.NumEdges()/4000) {
			break
		}
		ops = append(ops, sage.EdgeOp{U: k.u, V: k.v, Del: true})
		delete(model, k)
	}
	base := csr
	if bs != 0 {
		base = csr.Compress(bs)
	}
	snap, err := base.Snapshot().ApplyBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	var ref *sage.Graph
	if weighted {
		var edges []sage.WeightedEdge
		for k, w := range model {
			edges = append(edges, sage.WeightedEdge{U: k.u, V: k.v, W: w})
		}
		ref = sage.FromWeightedEdges(raw.NumVertices(), edges)
	} else {
		var edges []sage.Edge
		for k := range model {
			edges = append(edges, sage.Edge{U: k.u, V: k.v})
		}
		ref = sage.FromEdges(raw.NumVertices(), edges)
	}
	if bs != 0 {
		ref = ref.Compress(bs)
	}
	return snap, ref
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
