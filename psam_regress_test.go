package sage_test

import (
	"fmt"
	"testing"

	"sage"
)

// statKey is the golden subset of Stats that the hot-path refactor must
// preserve exactly: the simulated PSAM cost, the four access-count totals
// and the peak tracked small-memory residency.
type statKey struct {
	Cost, NVRAMReads, NVRAMWrites, DRAMReads, DRAMWrites, PeakDRAMWords int64
}

func keyOf(s sage.Stats) statKey {
	return statKey{s.PSAMCost, s.NVRAMReads, s.NVRAMWrites, s.DRAMReads, s.DRAMWrites, s.PeakDRAMWords}
}

// goldenStats pins the simulated access counts and peak small-memory
// residency of the reference workloads on a fixed seed graph (R-MAT
// logN=11, avgDeg=8, seed=7), captured at one worker so randomized
// tie-breaking cannot perturb the counts. Any change to these numbers is an
// accounting change and must be deliberate (see the frontierDegree fix
// commit for one audited delta). PageRank's peak counts its n-word degree
// array: 4n for a run, 2n for one iteration.
// The connectivity rows were re-captured when LDD's centre order became
// (start round, id): until then they pinned whichever order the unstable
// comparison sort left vertices of one start round in, which decides who
// claims a contested vertex and so how many inter-cluster edges each
// contraction level keeps. Nothing else moved.
// The bfs, connectivity and wbfs peaks fell when the pull traversal's
// output frontier became a bitmap billed at its ⌈n/64⌉ words instead of
// the ⌈n/8⌉ words of a byte per vertex; no count moved.
// The bfs and connectivity peaks rose by ⌈n/64⌉ = 32 words when edgeMap's
// condition became a vertex bitmap that BFS and LDD own; no count moved.
// The kcore rows moved when the peeling histogram's dense rounds became a
// forced-dense edgeMap over k-core's live bitmap: NVRAM reads rose by
// 1,381 (the edgeMap's frontierDegree bills one offset read per peeled
// vertex of a dense round), DRAM writes by 2,179 (the pull scan bills the
// bits of its output frontier), and the peak from 3n = 6,144 to 10,689 =
// 4n + 2⌈n/64⌉ + 2,433: the live bitmap, the n-word loss counts, one dense
// round's output bitmap, and the high-water mark of the counter's sparse
// and row buffers, all unbilled until then.
// The wbfs rows moved when wBFS's edgeMap condition became its settle
// bitmap: the pull scan no longer reads the in-edges of settled vertices,
// so NVRAM reads fell from 40,522 to 11,576 (CSR) and 40,336 to 11,390
// (byte64), DRAM reads from 38,576 to 9,630, and the cost with them; the
// peak rose by the bitmap's ⌈n/64⌉ = 32 words at n = 2,048.
// The mis and coloring rows moved when both came to share one
// priority-DAG skeleton, whose count pass bills each vertex's ScanCost at
// its EdgeAddr and its n count writes: coloring's DRAM writes rose by
// n = 2,048 (16,876 to 18,924; MIS billed them already), and on byte64 the
// count pass bills compressed words instead of neighbour counts, so NVRAM
// reads fell from 17,024 to 7,389 (mis) and 19,070 to 9,435 (coloring);
// the costs moved with them. No csr NVRAM count moved. MIS's peak rose from
// 4n = 8,192 to 4n + ⌈n/64⌉ = 8,224 (keys 2n, counts n, its result n and
// the undecided bitmap, which replaced an n-word state array); coloring's
// stays 5n (keys 2n, counts n, colors n, palettes n).
// The connectivity and byte64 rows moved when every list read came to be
// billed by one rule, its stored words (ScanCost) at its list's address,
// and connectivity's inter-cluster collection became the same pass as the
// inter-cluster count: the collection, which billed nothing, now bills
// its m = 12,780 list words and m cluster-label reads, so the csr
// connectivity rows' NVRAM reads rose from 25,055 to 37,835 and their
// DRAM reads from 19,821 to 32,601; on byte64 the pull scans, PageRank
// and LDD's inter-cluster count bill compressed words instead of edge
// counts, so NVRAM reads fell from 9,474 to 9,273 (bfs), 12,780 to 3,145
// (pagerankiter), 24,856 to 15,893 (connectivity, with the collection
// now billed and its DRAM reads as on csr), 62,916 to 14,284 (kcore),
// 127,800 to 31,450 (pagerank) and 11,390 to 4,862 (wbfs), and the costs
// with them. No other csr row and no peak moved.
// The mis and coloring rows moved when a decided vertex's list came to be
// read once in the rounds: MIS's roots no longer re-read theirs to release
// neighbours that their own claims had already decided, and coloring
// releases a root's uncolored (later) neighbours in the pass that fills
// its palette. NVRAM reads fell by the list words no longer read: on csr
// from 28,880 to 25,560 (mis) and 38,340 to 25,560 (coloring), on byte64
// from 7,389 to 6,290 (mis) and 9,435 to 6,290 (coloring), and the costs
// with them. Both now read each list twice, in the count pass and in the
// round that decides its vertex. No DRAM count and no peak moved.
var goldenStats = map[string]statKey{
	"csr/chunked/bfs":             {14908, 9660, 0, 3303, 1945, 2963},
	"csr/chunked/pagerankiter":    {27608, 12780, 0, 12780, 2048, 4096},
	"csr/chunked/connectivity":    {75918, 37835, 0, 32601, 5482, 9321},
	"csr/chunked/kcore":           {132038, 65620, 0, 60584, 5834, 10689},
	"csr/chunked/pagerank":        {276080, 127800, 0, 127800, 20480, 8192},
	"csr/chunked/coloring":        {44484, 25560, 0, 0, 18924, 10240},
	"csr/chunked/wbfs":            {23363, 11576, 0, 9630, 2157, 5011},
	"csr/chunked/mis":             {27608, 25560, 0, 0, 2048, 8224},
	"csr/blocked/bfs":             {14908, 9660, 0, 3303, 1945, 2505},
	"csr/blocked/pagerankiter":    {27608, 12780, 0, 12780, 2048, 4096},
	"csr/blocked/connectivity":    {75918, 37835, 0, 32601, 5482, 8767},
	"csr/blocked/kcore":           {132038, 65620, 0, 60584, 5834, 10689},
	"csr/blocked/pagerank":        {276080, 127800, 0, 127800, 20480, 8192},
	"csr/blocked/coloring":        {44484, 25560, 0, 0, 18924, 10240},
	"csr/blocked/wbfs":            {23363, 11576, 0, 9630, 2157, 4553},
	"csr/blocked/mis":             {27608, 25560, 0, 0, 2048, 8224},
	"csr/sparse/bfs":              {14932, 9660, 0, 3303, 1969, 2505},
	"csr/sparse/pagerankiter":     {27608, 12780, 0, 12780, 2048, 4096},
	"csr/sparse/connectivity":     {76130, 37835, 0, 32601, 5694, 8767},
	"csr/sparse/kcore":            {132038, 65620, 0, 60584, 5834, 10689},
	"csr/sparse/pagerank":         {276080, 127800, 0, 127800, 20480, 8192},
	"csr/sparse/coloring":         {44484, 25560, 0, 0, 18924, 10240},
	"csr/sparse/wbfs":             {23387, 11576, 0, 9630, 2181, 4553},
	"csr/sparse/mis":              {27608, 25560, 0, 0, 2048, 8224},
	"byte64/chunked/bfs":          {14521, 9273, 0, 3303, 1945, 2963},
	"byte64/chunked/pagerankiter": {17973, 3145, 0, 12780, 2048, 4096},
	"byte64/chunked/connectivity": {53976, 15893, 0, 32601, 5482, 9321},
	"byte64/chunked/kcore":        {80702, 14284, 0, 60584, 5834, 10689},
	"byte64/chunked/pagerank":     {179730, 31450, 0, 127800, 20480, 8192},
	"byte64/chunked/coloring":     {25214, 6290, 0, 0, 18924, 10240},
	"byte64/chunked/wbfs":         {16649, 4862, 0, 9630, 2157, 5011},
	"byte64/chunked/mis":          {8338, 6290, 0, 0, 2048, 8224},
	"byte64/blocked/bfs":          {14521, 9273, 0, 3303, 1945, 2505},
	"byte64/blocked/pagerankiter": {17973, 3145, 0, 12780, 2048, 4096},
	"byte64/blocked/connectivity": {53976, 15893, 0, 32601, 5482, 8767},
	"byte64/blocked/kcore":        {80702, 14284, 0, 60584, 5834, 10689},
	"byte64/blocked/pagerank":     {179730, 31450, 0, 127800, 20480, 8192},
	"byte64/blocked/coloring":     {25214, 6290, 0, 0, 18924, 10240},
	"byte64/blocked/wbfs":         {16649, 4862, 0, 9630, 2157, 4553},
	"byte64/blocked/mis":          {8338, 6290, 0, 0, 2048, 8224},
	"byte64/sparse/bfs":           {14545, 9273, 0, 3303, 1969, 2505},
	"byte64/sparse/pagerankiter":  {17973, 3145, 0, 12780, 2048, 4096},
	"byte64/sparse/connectivity":  {54188, 15893, 0, 32601, 5694, 8767},
	"byte64/sparse/kcore":         {80702, 14284, 0, 60584, 5834, 10689},
	"byte64/sparse/pagerank":      {179730, 31450, 0, 127800, 20480, 8192},
	"byte64/sparse/coloring":      {25214, 6290, 0, 0, 18924, 10240},
	"byte64/sparse/wbfs":          {16673, 4862, 0, 9630, 2181, 4553},
	"byte64/sparse/mis":           {8338, 6290, 0, 0, 2048, 8224},
}

// regressGraphs builds the fixed CSR and byte-compressed inputs.
func regressGraphs() map[string]*sage.Graph {
	g := sage.GenerateRMAT(11, 8, 7)
	return map[string]*sage.Graph{
		"csr":    g,
		"byte64": g.Compress(64),
	}
}

// TestPSAMStatsRegression runs BFS, PageRankIter, Connectivity, KCore,
// PageRank (ten iterations), Coloring, wBFS and MIS under every traversal
// strategy and asserts the accumulated counters
// match the goldens. Run with -run TestPSAMStatsRegression -v to print
// actual values when re-goldening after a deliberate accounting change.
func TestPSAMStatsRegression(t *testing.T) {
	old := sage.Workers()
	defer sage.SetWorkers(old)
	sage.SetWorkers(1)
	for gname, g := range regressGraphs() {
		for _, strat := range []struct {
			name string
			s    sage.Strategy
		}{{"chunked", sage.Chunked}, {"blocked", sage.Blocked}, {"sparse", sage.Sparse}} {
			e := sage.NewEngine(sage.WithStrategy(strat.s), sage.WithSeed(7))
			run := func(algo string, fn func()) {
				e.ResetStats()
				fn()
				name := fmt.Sprintf("%s/%s/%s", gname, strat.name, algo)
				got := keyOf(e.Stats())
				want, ok := goldenStats[name]
				if !ok {
					t.Errorf("missing golden %q: {%d, %d, %d, %d, %d, %d}",
						name, got.Cost, got.NVRAMReads, got.NVRAMWrites, got.DRAMReads, got.DRAMWrites, got.PeakDRAMWords)
					return
				}
				if got != want {
					t.Errorf("%s: stats drifted:\n got  %+v\n want %+v", name, got, want)
				}
			}
			run("bfs", func() { sage.Must(e.BFS(bg, g, 0)) })
			run("pagerankiter", func() {
				n := int(g.NumVertices())
				prev := make([]float64, n)
				next := make([]float64, n)
				for i := range prev {
					prev[i] = 1 / float64(n)
				}
				sage.Must(e.PageRankIter(bg, g, prev, next))
			})
			run("connectivity", func() { sage.Must(e.Connectivity(bg, g)) })
			run("kcore", func() { sage.Must(e.KCore(bg, g)) })
			run("pagerank", func() {
				if _, _, err := e.PageRank(bg, g, 0, 10); err != nil {
					t.Fatal(err)
				}
			})
			run("coloring", func() { sage.Must(e.Coloring(bg, g)) })
			run("wbfs", func() { sage.Must(e.WBFS(bg, g, 0)) })
			run("mis", func() { sage.Must(e.MIS(bg, g)) })
		}
	}
}
