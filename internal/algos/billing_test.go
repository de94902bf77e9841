package algos

import (
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"testing"

	"sage/internal/compress"
	"sage/internal/delta"
	"sage/internal/gen"
	"sage/internal/graph"
	"sage/internal/parallel"
	"sage/internal/psam"
)

// countingAdj wraps a graph and sums the stored words (the wrapped
// graph's ScanCost) of every range its Slice hands out. Its own ScanCost
// is the wrapped one times scale, so a run at scale 0 bills no list
// words at all: what it still bills are the offset reads, and a run's
// list bill is its NVRAM reads at scale 1 less those at scale 0. The
// wrapper hides every concrete type, so all reads go through Slice.
type countingAdj struct {
	graph.Adj
	scale int64
	words atomic.Int64
}

func (c *countingAdj) ScanCost(v, lo, hi uint32) int64 {
	return c.scale * c.Adj.ScanCost(v, lo, hi)
}

func (c *countingAdj) Slice(v, lo, hi uint32, s *graph.Scratch) ([]uint32, []int32) {
	nghs, ws := c.Adj.Slice(v, lo, hi, s)
	if len(nghs) > 0 {
		c.words.Add(c.Adj.ScanCost(v, lo, lo+uint32(len(nghs))))
	}
	return nghs, ws
}

// billingKinds builds the four representations the bill is checked on
// from one CSR graph: itself, with weights, byte-compressed in 64-edge
// blocks, and a snapshot overlay holding a batch of inserts and deletes,
// among them every edge of vertex 5.
func billingKinds(g *graph.Graph) map[string]graph.Adj {
	r := rand.New(rand.NewPCG(5, 0xb111))
	n := int(g.NumVertices())
	var ops []delta.Op
	for _, u := range g.Neighbors(5) {
		ops = append(ops, delta.Op{U: 5, V: u, Del: true})
	}
	for len(ops) < n/4 {
		u, v := uint32(r.IntN(n)), uint32(r.IntN(n))
		if u != v {
			ops = append(ops, delta.Op{U: u, V: v, Del: r.IntN(3) == 0})
		}
	}
	snap, err := delta.New(g).Apply(ops)
	if err != nil {
		panic(err)
	}
	return map[string]graph.Adj{
		"csr":      g,
		"weighted": gen.AddUniformWeights(g, 9),
		"byte64":   compress.Compress(g, 64),
		"overlay":  snap,
	}
}

// billMayFallShort reports where a run's list bill may be less than the
// words its reads hand out even when every traversal pushes.
func billMayFallShort(algo, kind string) bool {
	switch algo {
	case "biconn", "matching", "setcover", "tc", "kclique":
		// On an uncompressed graph the graph filter bills the live
		// positions of a block (§4.2.3), which follow no ScanCost, so the
		// scale-0 run counts them with the offset reads. On byte-64 it
		// bills the whole blocks it decodes.
		return kind != "byte64"
	case "kcore", "densest":
		// Peeling's dense rounds pull even when traversals push, and a
		// byte-64 pull scan decodes its first short piece twice.
		return kind == "byte64"
	}
	return false
}

// TestListBillEqualsRead checks the one read-billing rule: every list
// read bills the stored words of the range it returns. For every registry
// algorithm on CSR, weighted CSR, byte-64 and an overlay snapshot, the
// run's NVRAM list reads (offset reads taken out) must equal the stored
// words the graph handed out. Two cases may bill less, never more: a pull
// scan that exits early (and, on byte-64, re-decodes its first short
// piece), so runs with the direction left to the traversal are checked
// as an upper bound only, and the cases billMayFallShort names.
func TestListBillEqualsRead(t *testing.T) {
	old := parallel.Workers()
	defer parallel.SetWorkers(old)
	parallel.SetWorkers(1)

	inst := randomSetCover(120, 400, 12, 3)
	bases := map[bool]*graph.Graph{
		false: gen.RMAT(9, 8, 7),
		true:  BipartiteFromSets(inst.sets, inst.elems),
	}
	kinds := map[bool]map[string]graph.Adj{
		false: billingKinds(bases[false]),
		true:  billingKinds(bases[true]),
	}
	for _, spec := range Registry() {
		args := Args{}
		if spec.SetCover {
			args.NumSets = uint32(len(inst.sets))
		}
		for kind, g := range kinds[spec.SetCover] {
			for _, push := range []bool{true, false} {
				name := fmt.Sprintf("%s/%s/push=%v", spec.Name, kind, push)
				run := func(scale int64) (reads, words int64) {
					c := &countingAdj{Adj: g, scale: scale}
					o := Defaults().WithEnv(psam.NewEnv(psam.AppDirect))
					o.Traverse.ForceSparse = push
					spec.Run(c, o, args)
					return o.Env.Totals().NVRAMReads, c.words.Load()
				}
				all, words := run(1)
				offsets, _ := run(0)
				bill := all - offsets
				if words == 0 {
					t.Fatalf("%s: the run read no list", name)
				}
				exact := push && !billMayFallShort(spec.Name, kind)
				if bill > words || exact && bill != words {
					t.Errorf("%s: bills %d list words for %d read (%.2fx); %d other NVRAM reads follow no ScanCost",
						name, bill, words, float64(bill)/float64(words), offsets)
				}
			}
		}
	}
}

// TestMemoryModeSeesListAddresses checks that PageRank's reads reach the
// Memory-Mode cache at their lists' addresses, with and without weights.
// One iteration streams every list once, so a cache far smaller than the
// edge region hits almost never; a second iteration over a graph that
// fits in the cache hits on almost every word.
func TestMemoryModeSeesListAddresses(t *testing.T) {
	old := parallel.Workers()
	defer parallel.SetWorkers(old)
	parallel.SetWorkers(1)

	plain := gen.RMAT(12, 16, 7)
	for name, g := range map[string]*graph.Graph{"csr": plain, "weighted": gen.AddUniformWeights(plain, 9)} {
		n := int(g.NumVertices())
		prev, next := make([]float64, n), make([]float64, n)
		for i := range prev {
			prev[i] = 1 / float64(n)
		}
		hitShare := func(env *psam.Env) float64 {
			before := env.Totals()
			PageRankIter(g, Defaults().WithEnv(env), prev, next)
			c := env.Totals()
			hits, misses := c.CacheHits-before.CacheHits, c.CacheMisses-before.CacheMisses
			return float64(hits) / float64(hits+misses)
		}
		small := psam.NewEnv(psam.MemoryMode).WithCache(g.SizeWords() / 64)
		if h := hitShare(small); h > 0.1 {
			t.Errorf("%s: one pass through a cache 1/64 of the graph hit %.1f%% of its words", name, 100*h)
		}
		big := psam.NewEnv(psam.MemoryMode).WithCache(4 * g.SizeWords())
		if h := hitShare(big); h > 0.1 {
			t.Errorf("%s: a cold pass hit %.1f%% of its words", name, 100*h)
		}
		if h := hitShare(big); h < 0.9 {
			t.Errorf("%s: a second pass over a graph that fits in the cache hit %.1f%% of its words", name, 100*h)
		}
	}
}

// TestBillListsSumsScanCost checks the block bill's shortcuts against the
// per-list rule: on CSR the span of a block's list addresses, on an overlay
// that span corrected at the overlay's own vertices, must bill exactly the
// ScanCost of every whole list in the block.
func TestBillListsSumsScanCost(t *testing.T) {
	for kind, g := range billingKinds(gen.RMAT(9, 8, 7)) {
		flat := graph.NewFlat(g)
		n := g.NumVertices()
		for _, b := range [][2]uint32{{0, 64}, {64, 192}, {3, 70}, {100, 101}, {448, n}, {0, n}} {
			env := psam.NewEnv(psam.AppDirect)
			flat.BillLists(env, 0, b[0], b[1])
			var want int64
			for v := b[0]; v < b[1]; v++ {
				want += g.ScanCost(v, 0, g.Degree(v))
			}
			if got := env.Totals().NVRAMReads; got != want {
				t.Errorf("%s [%d, %d): billed %d words, its lists store %d", kind, b[0], b[1], got, want)
			}
		}
	}
}
