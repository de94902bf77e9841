package server

// The generation contract, checked where the generation lives: on the
// dataset record. A run pinned before an update keeps the state and the
// generation it saw, new pins see the next generation, and neither a
// compaction nor an eviction under a pin changes what the pin reads.
// Concurrent pins never pair a graph with another state's generation.

import (
	"sync"
	"testing"

	"sage"
)

// TestPinnedRunKeepsItsGeneration: pins taken before an update and before
// a compaction keep reporting, and reading, what they pinned; an eviction
// and reopen of the idle mapping leaves the generation where it was.
func TestPinnedRunKeepsItsGeneration(t *testing.T) {
	// A one-word dataset budget evicts the mapping whenever it is idle.
	s := New(Config{DatasetBudgetWords: 1})
	if err := s.AddDataset("g", makeBase(t, t.TempDir(), 16)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	edge := arc{0, 15, 1}
	pin := func(wantGen uint64, wantEdge bool) (*sage.Graph, func()) {
		t.Helper()
		g, gen, release, err := pinName(s, "g")
		if err != nil {
			t.Fatal(err)
		}
		if gen != wantGen || edgeSet(g)[edge] != wantEdge {
			t.Fatalf("pinned generation %d with edge=%v, want %d with edge=%v",
				gen, edgeSet(g)[edge], wantGen, wantEdge)
		}
		return g, release
	}

	g1, release1 := pin(1, false)
	res, err := s.updates.apply("g", []sage.EdgeOp{{U: 0, V: 15}}, false)
	if err != nil || res.generation != 2 {
		t.Fatalf("update: generation %v, err %v; want 2", res, err)
	}
	g2, release2 := pin(2, true)
	res, err = s.updates.apply("g", nil, true)
	if err != nil || !res.compacted || res.generation != 3 {
		t.Fatalf("compaction: %+v, err %v; want compacted at 3", res, err)
	}
	_, release3 := pin(3, true)

	// The elder pins still read their own states: g1 the base it pinned,
	// g2 the overlay over the detached pre-compaction mapping.
	if edgeSet(g1)[edge] || g1.NumVertices() != 16 {
		t.Fatal("the pre-update pin changed under the update")
	}
	if !edgeSet(g2)[edge] || g2.NumVertices() != 16 {
		t.Fatal("the pre-compaction pin changed under the compaction")
	}
	release1()
	release2()
	release3()

	if info := s.catalog.cache.Info(); info.Open != 0 || info.Evictions == 0 {
		t.Fatalf("the idle mapping was not evicted: %+v", info)
	}
	_, release4 := pin(3, true) // reopened, at the same generation
	release4()
}

// TestGenerationRacesPinning (run under -race in CI): one writer toggles
// an edge, so every window flips it and the edge is present exactly at
// even generations, while readers pin runs on a dataset whose idle
// mapping is evicted and reopened over and over. Every pinned (graph,
// generation) pair must agree with that parity, and no reader may see
// the generation go backwards.
func TestGenerationRacesPinning(t *testing.T) {
	const n = 64
	s := New(Config{DatasetBudgetWords: 1})
	if err := s.AddDataset("g", makeBase(t, t.TempDir(), n)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			op := sage.EdgeOp{U: 0, V: n - 1, Del: i%2 == 1}
			res, err := s.updates.apply("g", []sage.EdgeOp{op}, false)
			if err != nil {
				t.Error(err)
				return
			}
			if want := uint64(i + 2); res.generation != want {
				t.Errorf("toggle %d published generation %d, want %d", i, res.generation, want)
				return
			}
		}
	}()

	var readers sync.WaitGroup
	for r := 0; r < 8; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last uint64
			for j := 0; j < 200; j++ {
				g, gen, release, err := pinName(s, "g")
				if err != nil {
					t.Error(err)
					return
				}
				set := edgeSet(g)
				release()
				if gen < last {
					t.Errorf("generation went backwards: %d then %d", last, gen)
				}
				last = gen
				want := gen%2 == 0
				if set[arc{0, n - 1, 1}] != want || set[arc{n - 1, 0, 1}] != want {
					t.Errorf("generation %d pinned a graph with edge %v/%v, want %v",
						gen, set[arc{0, n - 1, 1}], set[arc{n - 1, 0, 1}], want)
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}
