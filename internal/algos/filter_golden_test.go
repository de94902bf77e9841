package algos_test

import (
	"fmt"
	"testing"

	"sage/internal/algos"
	"sage/internal/compress"
	"sage/internal/gbbs"
	"sage/internal/gen"
	"sage/internal/graph"
	"sage/internal/parallel"
	"sage/internal/psam"
)

// filterKey is what a graph-filter run must reproduce exactly, however
// its intersections are evaluated: the result, Table 4's two work
// measures (triangle counting only), and the PSAM access counts and cost.
// The peak small-memory residency is left out: it moves with the
// filter's own bookkeeping.
type filterKey struct {
	Count, IntersectionWork, TotalWork                   int64
	Cost, NVRAMReads, NVRAMWrites, DRAMReads, DRAMWrites int64
}

// goldenFilter pins triangle counting and 4- and 5-clique counting on the
// six degree-skew families, over a CSR graph, its byte-64 compression and
// a snapshot, under the Sage filter and the GBBS mutable baseline, at one
// worker. Keys are family/base/design/algo.
var goldenFilter = map[string]filterKey{
	"star/csr/sage/tc":           {0, 0, 399, 2002, 1197, 0, 0, 805},
	"star/csr/sage/k4":           {0, 0, 0, 2002, 1197, 0, 0, 805},
	"star/csr/sage/k5":           {0, 0, 0, 2002, 1197, 0, 0, 805},
	"star/csr/gbbs/tc":           {0, 0, 399, 1197, 1197, 0, 0, 0},
	"star/csr/gbbs/k4":           {0, 0, 0, 1197, 1197, 0, 0, 0},
	"star/csr/gbbs/k5":           {0, 0, 0, 1197, 1197, 0, 0, 0},
	"star/byte64/sage/tc":        {0, 0, 399, 1658, 853, 0, 0, 805},
	"star/byte64/sage/k4":        {0, 0, 0, 1658, 853, 0, 0, 805},
	"star/byte64/sage/k5":        {0, 0, 0, 1658, 853, 0, 0, 805},
	"star/byte64/gbbs/tc":        {0, 0, 399, 1197, 1197, 0, 0, 0},
	"star/byte64/gbbs/k4":        {0, 0, 0, 1197, 1197, 0, 0, 0},
	"star/byte64/gbbs/k5":        {0, 0, 0, 1197, 1197, 0, 0, 0},
	"star/snapshot/sage/tc":      {33, 109, 438, 1712, 1124, 0, 0, 588},
	"star/snapshot/sage/k4":      {0, 0, 0, 1712, 1124, 0, 0, 588},
	"star/snapshot/sage/k5":      {0, 0, 0, 1712, 1124, 0, 0, 588},
	"star/snapshot/gbbs/tc":      {33, 109, 438, 1964, 1124, 70, 0, 0},
	"star/snapshot/gbbs/k4":      {0, 0, 0, 1964, 1124, 70, 0, 0},
	"star/snapshot/gbbs/k5":      {0, 0, 0, 1964, 1124, 70, 0, 0},
	"bipartite/csr/sage/tc":      {0, 0, 960, 2984, 2880, 0, 0, 104},
	"bipartite/csr/sage/k4":      {0, 0, 0, 2984, 2880, 0, 0, 104},
	"bipartite/csr/sage/k5":      {0, 0, 0, 2984, 2880, 0, 0, 104},
	"bipartite/csr/gbbs/tc":      {0, 0, 960, 2880, 2880, 0, 0, 0},
	"bipartite/csr/gbbs/k4":      {0, 0, 0, 2880, 2880, 0, 0, 0},
	"bipartite/csr/gbbs/k5":      {0, 0, 0, 2880, 2880, 0, 0, 0},
	"bipartite/byte64/sage/tc":   {0, 0, 960, 464, 360, 0, 0, 104},
	"bipartite/byte64/sage/k4":   {0, 0, 0, 464, 360, 0, 0, 104},
	"bipartite/byte64/sage/k5":   {0, 0, 0, 464, 360, 0, 0, 104},
	"bipartite/byte64/gbbs/tc":   {0, 0, 960, 2880, 2880, 0, 0, 0},
	"bipartite/byte64/gbbs/k4":   {0, 0, 0, 2880, 2880, 0, 0, 0},
	"bipartite/byte64/gbbs/k5":   {0, 0, 0, 2880, 2880, 0, 0, 0},
	"bipartite/snapshot/sage/tc": {196, 2060, 1139, 3134, 3025, 0, 0, 109},
	"bipartite/snapshot/sage/k4": {0, 0, 0, 3134, 3025, 0, 0, 109},
	"bipartite/snapshot/sage/k5": {0, 0, 0, 3134, 3025, 0, 0, 109},
	"bipartite/snapshot/gbbs/tc": {196, 2060, 1139, 3085, 3025, 5, 0, 0},
	"bipartite/snapshot/gbbs/k4": {0, 0, 0, 3085, 3025, 5, 0, 0},
	"bipartite/snapshot/gbbs/k5": {0, 0, 0, 3085, 3025, 5, 0, 0},
	"grid/csr/sage/tc":           {0, 1670, 1872, 3815, 3168, 0, 0, 647},
	"grid/csr/sage/k4":           {0, 0, 0, 3815, 3168, 0, 0, 647},
	"grid/csr/sage/k5":           {0, 0, 0, 3815, 3168, 0, 0, 647},
	"grid/csr/gbbs/tc":           {0, 1670, 1872, 10896, 3168, 644, 0, 0},
	"grid/csr/gbbs/k4":           {0, 0, 0, 10896, 3168, 644, 0, 0},
	"grid/csr/gbbs/k5":           {0, 0, 0, 10896, 3168, 644, 0, 0},
	"grid/byte64/sage/tc":        {0, 1670, 3868, 1938, 1291, 0, 0, 647},
	"grid/byte64/sage/k4":        {0, 0, 0, 1938, 1291, 0, 0, 647},
	"grid/byte64/sage/k5":        {0, 0, 0, 1938, 1291, 0, 0, 647},
	"grid/byte64/gbbs/tc":        {0, 1670, 1872, 10896, 3168, 644, 0, 0},
	"grid/byte64/gbbs/k4":        {0, 0, 0, 10896, 3168, 644, 0, 0},
	"grid/byte64/gbbs/k5":        {0, 0, 0, 10896, 3168, 644, 0, 0},
	"grid/snapshot/sage/tc":      {3, 1210, 1352, 3184, 2562, 0, 0, 622},
	"grid/snapshot/sage/k4":      {0, 0, 0, 3184, 2562, 0, 0, 622},
	"grid/snapshot/sage/k5":      {0, 0, 0, 3184, 2562, 0, 0, 622},
	"grid/snapshot/gbbs/tc":      {3, 1210, 1352, 7638, 2562, 423, 0, 0},
	"grid/snapshot/gbbs/k4":      {0, 0, 0, 7638, 2562, 423, 0, 0},
	"grid/snapshot/gbbs/k5":      {0, 0, 0, 7638, 2562, 423, 0, 0},
	"powerlaw/csr/sage/tc":       {6231, 256030, 185300, 228663, 224560, 0, 0, 4103},
	"powerlaw/csr/sage/k4":       {1305, 0, 0, 237991, 233888, 0, 0, 4103},
	"powerlaw/csr/sage/k5":       {324, 0, 0, 232645, 228542, 0, 0, 4103},
	"powerlaw/csr/gbbs/tc":       {6231, 256030, 185300, 409444, 224560, 15407, 0, 0},
	"powerlaw/csr/gbbs/k4":       {1305, 0, 0, 418772, 233888, 15407, 0, 0},
	"powerlaw/csr/gbbs/k5":       {324, 0, 0, 413426, 228542, 15407, 0, 0},
	"powerlaw/byte64/sage/tc":    {6231, 256030, 743333, 124414, 120311, 0, 0, 4103},
	"powerlaw/byte64/sage/k4":    {1305, 0, 0, 140432, 136329, 0, 0, 4103},
	"powerlaw/byte64/sage/k5":    {324, 0, 0, 133409, 129306, 0, 0, 4103},
	"powerlaw/byte64/gbbs/tc":    {6231, 256030, 185300, 409444, 224560, 15407, 0, 0},
	"powerlaw/byte64/gbbs/k4":    {1305, 0, 0, 418772, 233888, 15407, 0, 0},
	"powerlaw/byte64/gbbs/k5":    {324, 0, 0, 413426, 228542, 15407, 0, 0},
	"powerlaw/snapshot/sage/tc":  {6174, 250295, 181336, 224162, 220062, 0, 0, 4100},
	"powerlaw/snapshot/sage/k4":  {1305, 0, 0, 233427, 229327, 0, 0, 4100},
	"powerlaw/snapshot/sage/k5":  {324, 0, 0, 228177, 224077, 0, 0, 4100},
	"powerlaw/snapshot/gbbs/tc":  {6174, 250295, 181336, 403386, 220062, 15277, 0, 0},
	"powerlaw/snapshot/gbbs/k4":  {1305, 0, 0, 412651, 229327, 15277, 0, 0},
	"powerlaw/snapshot/gbbs/k5":  {324, 0, 0, 407401, 224077, 15277, 0, 0},
	"dense-er/csr/sage/tc":       {52030, 405398, 175945, 191611, 190873, 0, 0, 738},
	"dense-er/csr/sage/k4":       {83885, 0, 0, 1003278, 1002540, 0, 0, 738},
	"dense-er/csr/sage/k5":       {33462, 0, 0, 1832233, 1831495, 0, 0, 738},
	"dense-er/csr/gbbs/tc":       {52030, 405398, 175945, 278605, 190873, 7311, 0, 0},
	"dense-er/csr/gbbs/k4":       {83885, 0, 0, 1090272, 1002540, 7311, 0, 0},
	"dense-er/csr/gbbs/k5":       {33462, 0, 0, 1919227, 1831495, 7311, 0, 0},
	"dense-er/byte64/sage/tc":    {52030, 405398, 518822, 75740, 75002, 0, 0, 738},
	"dense-er/byte64/sage/k4":    {83885, 0, 0, 560930, 560192, 0, 0, 738},
	"dense-er/byte64/sage/k5":    {33462, 0, 0, 1205370, 1204632, 0, 0, 738},
	"dense-er/byte64/gbbs/tc":    {52030, 405398, 175945, 278605, 190873, 7311, 0, 0},
	"dense-er/byte64/gbbs/k4":    {83885, 0, 0, 1090272, 1002540, 7311, 0, 0},
	"dense-er/byte64/gbbs/k5":    {33462, 0, 0, 1919227, 1831495, 7311, 0, 0},
	"dense-er/snapshot/sage/tc":  {50980, 399974, 173945, 189515, 188781, 0, 0, 734},
	"dense-er/snapshot/sage/k4":  {80226, 0, 0, 981892, 981158, 0, 0, 734},
	"dense-er/snapshot/sage/k5":  {30847, 0, 0, 1772828, 1772094, 0, 0, 734},
	"dense-er/snapshot/gbbs/tc":  {50980, 399974, 173945, 275973, 188781, 7266, 0, 0},
	"dense-er/snapshot/gbbs/k4":  {80226, 0, 0, 1068350, 981158, 7266, 0, 0},
	"dense-er/snapshot/gbbs/k5":  {30847, 0, 0, 1859286, 1772094, 7266, 0, 0},
	"rmat/csr/sage/tc":           {3027, 24706, 22861, 34585, 32543, 0, 0, 2042},
	"rmat/csr/sage/k4":           {657, 0, 0, 37227, 35185, 0, 0, 2042},
	"rmat/csr/sage/k5":           {30, 0, 0, 35838, 33796, 0, 0, 2042},
	"rmat/csr/gbbs/tc":           {3027, 24706, 22861, 71663, 32543, 3260, 0, 0},
	"rmat/csr/gbbs/k4":           {657, 0, 0, 74305, 35185, 3260, 0, 0},
	"rmat/csr/gbbs/k5":           {30, 0, 0, 72916, 33796, 3260, 0, 0},
	"rmat/byte64/sage/tc":        {3027, 24706, 145798, 26115, 24073, 0, 0, 2042},
	"rmat/byte64/sage/k4":        {657, 0, 0, 35729, 33687, 0, 0, 2042},
	"rmat/byte64/sage/k5":        {30, 0, 0, 30672, 28630, 0, 0, 2042},
	"rmat/byte64/gbbs/tc":        {3027, 24706, 22861, 71663, 32543, 3260, 0, 0},
	"rmat/byte64/gbbs/k4":        {657, 0, 0, 74305, 35185, 3260, 0, 0},
	"rmat/byte64/gbbs/k5":        {30, 0, 0, 72916, 33796, 3260, 0, 0},
	"rmat/snapshot/sage/tc":      {2766, 23851, 22049, 33509, 31469, 0, 0, 2040},
	"rmat/snapshot/sage/k4":      {600, 0, 0, 35742, 33702, 0, 0, 2040},
	"rmat/snapshot/sage/k5":      {29, 0, 0, 34513, 32473, 0, 0, 2040},
	"rmat/snapshot/gbbs/tc":      {2766, 23851, 22049, 70265, 31469, 3233, 0, 0},
	"rmat/snapshot/gbbs/k4":      {600, 0, 0, 72498, 33702, 3233, 0, 0},
	"rmat/snapshot/gbbs/k5":      {29, 0, 0, 71269, 32473, 3233, 0, 0},
}

// TestFilterAlgorithmsGolden runs tc, 4-clique and 5-clique on every
// family, base and filter design and compares against goldenFilter. A
// missing key is reported with its measured value, so new rows can be
// pinned with -run TestFilterAlgorithmsGolden -v.
func TestFilterAlgorithmsGolden(t *testing.T) {
	old := parallel.Workers()
	defer parallel.SetWorkers(old)
	parallel.SetWorkers(1)
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
	designs := []struct {
		name string
		opts func(env *psam.Env) *algos.Options
	}{
		{"sage", func(env *psam.Env) *algos.Options { return algos.Defaults().WithEnv(env) }},
		{"gbbs", gbbs.Options},
	}
	for _, fam := range families {
		snap, _ := snapshotOf(t, fam.g)
		bases := []struct {
			name string
			g    graph.Adj
		}{{"csr", fam.g}, {"byte64", compress.Compress(fam.g, 64)}, {"snapshot", snap}}
		for _, b := range bases {
			for _, d := range designs {
				check := func(algo string, run func(o *algos.Options) (count, iw, tw int64)) {
					env := psam.NewEnv(psam.AppDirect)
					count, iw, tw := run(d.opts(env))
					c := env.Totals()
					got := filterKey{count, iw, tw, env.Cost(), c.NVRAMReads, c.NVRAMWrites, c.DRAMReads, c.DRAMWrites}
					name := fmt.Sprintf("%s/%s/%s/%s", fam.name, b.name, d.name, algo)
					want, ok := goldenFilter[name]
					if !ok {
						t.Errorf("missing golden:\n\t%q: {%d, %d, %d, %d, %d, %d, %d, %d},", name,
							got.Count, got.IntersectionWork, got.TotalWork, got.Cost, got.NVRAMReads, got.NVRAMWrites, got.DRAMReads, got.DRAMWrites)
						return
					}
					if got != want {
						t.Errorf("%s drifted:\n got  %+v\n want %+v", name, got, want)
					}
				}
				check("tc", func(o *algos.Options) (int64, int64, int64) {
					r := algos.TriangleCount(b.g, o)
					return r.Count, r.IntersectionWork, r.TotalWork
				})
				for _, k := range []int{4, 5} {
					check(fmt.Sprintf("k%d", k), func(o *algos.Options) (int64, int64, int64) {
						return algos.KCliqueCount(b.g, o, k), 0, 0
					})
				}
			}
		}
	}
}

// TestFilterUsersFreeTheirBills runs every algorithm that builds an edge
// filter on one shared Env, one after another, and requires each to leave
// the Env's tracked small-memory residency where it found it: the
// filter's words are billed when it is built and freed when its user
// returns, so a reused Env carries no residue into its next run.
// Biconnectivity also runs BFSTree and Connectivity, whose dense edgeMap
// rounds leave their output bitmaps billed; its residue must equal that
// of the same run over the GBBS mutable image, which bills nothing.
func TestFilterUsersFreeTheirBills(t *testing.T) {
	old := parallel.Workers()
	defer parallel.SetWorkers(old)
	parallel.SetWorkers(1)
	g := gen.RMAT(11, 8, 7)
	n := g.NumVertices()
	sets := make([][]uint32, n) // each vertex covers its neighbours
	for v := range sets {
		sets[v] = g.Neighbors(uint32(v))
	}
	cover := algos.BipartiteFromSets(sets, n)
	users := []struct {
		name string
		run  func(o *algos.Options)
	}{
		{"tc", func(o *algos.Options) { algos.TriangleCount(g, o) }},
		{"k4", func(o *algos.Options) { algos.KCliqueCount(g, o, 4) }},
		{"biconnectivity", func(o *algos.Options) { algos.Biconnectivity(g, o) }},
		{"matching", func(o *algos.Options) { algos.MaximalMatching(g, o) }},
		{"setcover", func(o *algos.Options) { algos.ApproxSetCover(cover, o, n) }},
	}
	residue := func(o *algos.Options, run func(o *algos.Options)) int64 {
		start := o.Env.Space.Current()
		run(o)
		return o.Env.Space.Current() - start
	}
	sage := algos.Defaults().WithEnv(psam.NewEnv(psam.AppDirect))
	mut := algos.Defaults().WithEnv(psam.NewEnv(psam.AppDirect))
	mut.NewFilter = gbbs.NewMutFilter
	for _, u := range users {
		got := residue(sage, u.run)
		want := int64(0)
		if u.name == "biconnectivity" {
			want = residue(mut, u.run)
		}
		if got != want {
			t.Errorf("%s: the run left %d words tracked, want %d", u.name, got, want)
		}
	}
	if sage.Env.Space.Peak() == 0 {
		t.Error("no run billed any small memory")
	}
}
