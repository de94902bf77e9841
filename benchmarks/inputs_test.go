package main

import (
	"encoding/json"
	"hash/crc32"
	"math/rand"
	"testing"

	"sage"
)

// sequenceDigest renders the first n requests of every workload's
// sequences at smoke scale and hashes their bytes.
func sequenceDigest(t *testing.T, seed uint64, n int) uint32 {
	t.Helper()
	sc := smokeScale
	web, err := makeGraph(sc.serveLogN, seed)
	if err != nil {
		t.Fatal(err)
	}
	edges := web.nonEdges(rand.New(rand.NewSource(int64(seed)+3)), sc.preload+sc.onePool+sc.bulkOps)
	one, bulk := togglePool(edges[sc.preload:sc.preload+sc.onePool]), edges[sc.preload+sc.onePool:]
	table := makeHitTable(rand.New(rand.NewSource(int64(seed)+2)), sc.hitKeys)
	h := crc32.NewIEEE()
	for i := 0; i < n; i++ {
		for _, r := range []request{
			missRequest(web, i),
			hitRequest(web, table, i),
			writerRequest(one, bulk, i),
			routeRequest(web, table, one, sc.hitKeys, i),
		} {
			h.Write([]byte(r.path))
			h.Write(r.body)
		}
	}
	return h.Sum32()
}

func TestSameSeedSameRequests(t *testing.T) {
	a, b, c := sequenceDigest(t, 7, 500), sequenceDigest(t, 7, 500), sequenceDigest(t, 8, 500)
	if a != b {
		t.Errorf("seed 7 produced two different request sequences: %08x, %08x", a, b)
	}
	if a == c {
		t.Errorf("seeds 7 and 8 produced the same request sequence")
	}
}

// TestToggleKeepsOverlayInBand replays the serve_update writer sequence
// against a model of the overlay: every insert must be of an absent edge
// and every delete of a present one (so every batch changes the graph),
// the count must be what writerPresent says, and it must stay inside the
// stated band however long the writer runs.
func TestToggleKeepsOverlayInBand(t *testing.T) {
	sc := smokeScale
	web, err := makeGraph(sc.serveLogN, 3)
	if err != nil {
		t.Fatal(err)
	}
	edges := web.nonEdges(rand.New(rand.NewSource(1)), sc.onePool+sc.bulkOps)
	one, bulk := togglePool(edges[:sc.onePool]), edges[sc.onePool:]
	present := map[[2]uint32]bool{}
	for j := 0; j < 40*updateCycle*sc.onePool/19; j++ {
		var body struct {
			Ops []sage.EdgeOp `json:"ops"`
		}
		if err := json.Unmarshal(writerRequest(one, bulk, j).body, &body); err != nil {
			t.Fatal(err)
		}
		for _, op := range body.Ops {
			key := [2]uint32{op.U, op.V}
			if op.Del != present[key] {
				t.Fatalf("batch %d: del=%v of an edge whose presence is %v", j, op.Del, present[key])
			}
			if present[key] = !op.Del; op.Del {
				delete(present, key)
			}
		}
		if want := writerPresent(one, len(bulk), j+1); len(present) != want {
			t.Fatalf("after batch %d: %d edges present, writerPresent says %d", j, len(present), want)
		}
		if len(present) > sc.onePool+sc.bulkOps {
			t.Fatalf("after batch %d: %d toggled edges present, band is [0, %d]", j, len(present), sc.onePool+sc.bulkOps)
		}
	}
}

func TestNonEdgesAreDistinctNonEdges(t *testing.T) {
	web, err := makeGraph(smokeScale.serveLogN, 5)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]uint32]bool{}
	for _, op := range web.nonEdges(rand.New(rand.NewSource(9)), 500) {
		if op.U >= op.V || seen[[2]uint32{op.U, op.V}] || adjacent(web.g.RawCSR().Neighbors(op.U), op.V) {
			t.Fatalf("edge (%d,%d) is a loop, a repeat or a base edge", op.U, op.V)
		}
		seen[[2]uint32{op.U, op.V}] = true
	}
}
