package algos

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"sage/internal/parallel"
	"sage/internal/refalgo"
)

// priorityOrder lists the vertices in prioDAG's order: by key, ties
// broken by id.
func priorityOrder(n uint32, key func(v uint32) uint64) []uint32 {
	order := make([]uint32, n)
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int {
		return cmp.Or(cmp.Compare(key(a), key(b)), cmp.Compare(a, b))
	})
	return order
}

// TestMISAndColoringMatchSerialGreedy checks the equality both doc
// comments promise: MIS and Coloring equal the serial greedy algorithms
// over their priority orders, at 1, 2 and 4 workers and for two seeds.
func TestMISAndColoringMatchSerialGreedy(t *testing.T) {
	defer parallel.SetWorkers(parallel.Workers())
	for _, seed := range []uint64{1, 29} {
		for _, fam := range condFamilies() {
			g, n := fam.g, fam.g.NumVertices()
			mis := refalgo.GreedyMIS(g, priorityOrder(n, misPriority(seed)))
			colors := refalgo.GreedyColoring(g, priorityOrder(n, lfPriority(g, seed)))
			for _, p := range []int{1, 2, 4} {
				parallel.SetWorkers(p)
				o := Defaults()
				o.Seed = seed
				name := fmt.Sprintf("seed%d/p%d/%s", seed, p, fam.name)
				if got := MIS(g, o); !slices.Equal(got, mis) {
					t.Fatalf("%s: MIS differs from the serial greedy MIS", name)
				}
				if got := Coloring(g, o); !slices.Equal(got, colors) {
					t.Fatalf("%s: coloring differs from the serial greedy coloring", name)
				}
			}
		}
	}
}

// TestPriorityDAGBreaksTiesByID gives the vertices four keys, so many
// edges join equal keys, and checks that every vertex becomes a root
// exactly once, in the round after its last earlier neighbour's, under the
// order by key and then id. Were ties left unbroken, neither endpoint of a
// tied edge would count the other, and both would be roots of one round.
func TestPriorityDAGBreaksTiesByID(t *testing.T) {
	defer parallel.SetWorkers(parallel.Workers())
	key := func(v uint32) uint64 { return hash64(uint64(v), 3) % 4 }
	for _, fam := range condFamilies() {
		g, n := fam.g, fam.g.NumVertices()
		want := make([]int, n)
		for _, v := range priorityOrder(n, key) {
			want[v] = 1
			for _, u := range g.Neighbors(v) {
				if want[u] != 0 && u != v {
					want[v] = max(want[v], want[u]+1)
				}
			}
		}
		for _, p := range []int{1, 2, 4} {
			parallel.SetWorkers(p)
			d := newPrioDAG(g, Defaults(), key)
			got := make([]int, n)
			rounds := 0
			d.run(func(roots []uint32) {
				rounds++
				for _, v := range roots {
					if got[v] != 0 {
						t.Fatalf("p%d/%s: vertex %d is a root in rounds %d and %d", p, fam.name, v, got[v], rounds)
					}
					got[v] = rounds
				}
				parallel.ForWorker(len(roots), 4, func(w, i int) {
					d.release(w, roots[i], d.adj(w, roots[i]))
				})
			})
			d.free()
			if !slices.Equal(got, want) {
				t.Fatalf("p%d/%s: root rounds differ from the serial layering by (key, id)", p, fam.name)
			}
		}
	}
}
