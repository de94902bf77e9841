// Package harness drives the paper's experiments (§5): each exported
// RunXxx function regenerates one table or figure of the evaluation over
// the synthetic workloads, returning a Report that the cmd/sage-bench
// tool prints and the test suite asserts shape properties on
// (who wins, by roughly what factor, where crossovers fall).
package harness

import (
	"fmt"
	"math"
	"strings"
	"time"

	"sage/internal/algos"
	"sage/internal/galois"
	"sage/internal/gbbs"
	"sage/internal/gen"
	"sage/internal/graph"
	"sage/internal/psam"
	"sage/internal/traverse"
)

// Report is one experiment's output: a titled table plus free-form
// summary lines (the "averages" sentences of the paper's prose).
type Report struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
	// Metrics holds machine-readable values keyed by "row/column" for the
	// shape assertions in the test suite.
	Metrics map[string]float64
}

// Metric records a machine-readable value.
func (r *Report) Metric(key string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]float64{}
	}
	r.Metrics[key] = v
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Columns)
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "-- %s\n", n)
	}
	return b.String()
}

// Workload bundles the graphs one experiment scale uses.
type Workload struct {
	Scale    int
	G        *graph.Graph // symmetrized R-MAT
	WG       *graph.Graph // weighted variant
	SetCover *graph.Graph // bipartite instance derived from G
	NumSets  uint32
}

// NewWorkload builds the standard workload at 2^scale vertices with
// average degree ~16 (the social/web regime of Table 2). When a workload
// cache is configured (SetWorkloadCache), the graphs are persisted through
// the dataset layer and reopened memory-mapped instead of regenerated.
func NewWorkload(scale int) *Workload {
	cacheMu.Lock()
	dir := cacheDir
	cacheMu.Unlock()
	if dir != "" {
		// Cache trouble (unwritable dir, corrupt file) degrades to plain
		// generation inside cachedWorkload: the benchmark must still run.
		return cachedWorkload(scale, dir)
	}
	g := gen.RMAT(scale, 16, 0x5a6e+uint64(scale))
	wg := gen.AddUniformWeights(g, 77)
	sc, ns := SetCoverInstance(g)
	return &Workload{Scale: scale, G: g, WG: wg, SetCover: sc, NumSets: ns}
}

// SetCoverInstance derives a bipartite set-cover instance from a graph:
// every vertex is a set covering its neighborhood (the GBBS formulation).
func SetCoverInstance(g *graph.Graph) (*graph.Graph, uint32) {
	n := g.NumVertices()
	edges := make([]graph.Edge, 0, g.NumEdges())
	for v := uint32(0); v < n; v++ {
		for _, u := range g.Neighbors(v) {
			edges = append(edges, graph.Edge{U: v, V: n + u})
		}
	}
	return graph.FromEdges(2*n, edges, graph.BuildOpts{Symmetrize: true}), n
}

// Problem is one of the benchmarked graph problems. Run executes it
// against the appropriate workload graph under the given options.
type Problem struct {
	Name     string
	Weighted bool
	SetCover bool
	// Run executes the Sage/GBBS implementation.
	Run func(o *algos.Options, w *Workload, adj graph.Adj)
	// Galois executes the vertex-centric baseline (nil when [43] has no
	// implementation for the problem).
	Galois func(e *galois.Engine)
}

// galoisRunners maps registry names to the vertex-centric baseline of
// Gill et al. [43], for the problems it implements comparably (plus its
// single-k k-core, excluded from averages as in §5.5).
func galoisRunners() map[string]func(*galois.Engine) {
	return map[string]func(*galois.Engine){
		"bfs":           func(e *galois.Engine) { e.BFS(0) },
		"bellmanford":   func(e *galois.Engine) { e.SSSP(0) },
		"bc":            func(e *galois.Engine) { e.Betweenness(0) },
		"cc":            func(e *galois.Engine) { e.Connectivity() },
		"kcore":         func(e *galois.Engine) { e.KCoreSingleK(10) },
		"pagerank-iter": func(e *galois.Engine) { e.PageRank(1) },
		"pagerank":      func(e *galois.Engine) { e.PageRank(30) },
	}
}

// benchArgs pins the evaluation's per-problem parameters where they
// differ from the registry defaults (§5.3 runs PageRank for at most 30
// iterations).
var benchArgs = map[string]algos.Args{
	"pagerank": {MaxIters: 30},
}

// Problems is the Figure 1 suite in the paper's order, derived from the
// shared algorithm registry: the specs flagged Fig1, each bound to the
// evaluation's parameters and (where available) the Galois baseline.
func Problems() []Problem {
	gal := galoisRunners()
	var out []Problem
	for _, s := range algos.Registry() {
		if !s.Fig1 {
			continue
		}
		spec := s
		args := benchArgs[s.Name]
		out = append(out, Problem{
			Name:     spec.Title,
			Weighted: spec.Weighted,
			SetCover: spec.SetCover,
			Run: func(o *algos.Options, w *Workload, adj graph.Adj) {
				a := args
				if spec.SetCover {
					a.NumSets = w.NumSets
				}
				spec.Run(adj, o, a)
			},
			Galois: gal[spec.Name],
		})
	}
	return out
}

// graphFor selects the workload graph a problem runs against.
func (w *Workload) graphFor(p Problem) *graph.Graph {
	switch {
	case p.Weighted:
		return w.WG
	case p.SetCover:
		return w.SetCover
	default:
		return w.G
	}
}

// Config is one memory/traversal configuration under comparison.
type Config struct {
	Name     string
	Mode     psam.Mode
	Strategy traverse.Strategy
	Mutating bool  // GBBS mutation-based filtering
	CacheDiv int64 // MemoryMode cache = graph words / CacheDiv
}

// run executes problem p under configuration c, returning the simulated
// PSAM cost and the wall-clock time.
func (c Config) run(p Problem, w *Workload) (int64, time.Duration) {
	g := w.graphFor(p)
	env := psam.NewEnv(c.Mode)
	if c.Mode == psam.MemoryMode {
		div := c.CacheDiv
		if div == 0 {
			div = 8
		}
		env.WithCache(g.SizeWords() / div)
	}
	var o *algos.Options
	if c.Mutating {
		o = gbbs.Options(env)
	} else {
		o = algos.Defaults().WithEnv(env)
	}
	o.Traverse.Strategy = c.Strategy
	start := time.Now()
	p.Run(o, w, g)
	return env.Cost(), time.Since(start)
}

// fmtRatio formats a slowdown ratio like the figures' bar labels.
func fmtRatio(v float64) string { return fmt.Sprintf("%.2f", v) }

// geoMean computes the geometric mean of the values.
func geoMean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	acc := 0.0
	for _, v := range vals {
		if v <= 0 {
			return 0
		}
		acc += math.Log(v)
	}
	return math.Exp(acc / float64(len(vals)))
}
