package algos

import (
	"fmt"

	"sage/internal/graph"
)

// This file is the single algorithm registry: every runnable problem is
// described once — name, parameter schema, and an invoker — and every
// dispatcher in the repository (the public sage.Algorithms API, the
// sage-run CLI, and the experiment harness's Figure 1 suite) is derived
// from it, instead of each maintaining its own switch.

// ArgKind is the type of one algorithm parameter.
type ArgKind int

const (
	// ArgVertex is a vertex id (bound to Args.Src or Args.NumSets).
	ArgVertex ArgKind = iota
	// ArgInt is an integer parameter.
	ArgInt
	// ArgFloat is a floating-point parameter.
	ArgFloat
)

// String names the kind for listings.
func (k ArgKind) String() string {
	switch k {
	case ArgVertex:
		return "vertex"
	case ArgInt:
		return "int"
	case ArgFloat:
		return "float"
	}
	return "unknown"
}

// MarshalText encodes the kind by name ("vertex", "int", "float").
func (k ArgKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// ArgSpec describes one parameter of an algorithm beyond the graph. The
// JSON form is an entry of the /v1/algorithms listing.
type ArgSpec struct {
	// Name identifies the Args field the parameter binds to: one of
	// "src", "k", "eps", "maxiters", "beta", "damping", "numsets",
	// "maxsize".
	Name string  `json:"name"`
	Kind ArgKind `json:"kind"`
	// Default is the value used when the Args field is zero. It is stated
	// here and nowhere else: Spec.Run canonicalizes before invoking.
	Default float64 `json:"default"`
	Doc     string  `json:"doc"`
}

// Args carries the per-call parameters of a registry invocation beyond
// the graph. Zero values select each algorithm's documented default. The
// JSON names are the ArgSpec names (the run endpoint's wire format).
type Args struct {
	Src      uint32  `json:"src,omitempty"`
	K        int     `json:"k,omitempty"`
	Eps      float64 `json:"eps,omitempty"`
	MaxIters int     `json:"maxiters,omitempty"`
	Beta     float64 `json:"beta,omitempty"`
	Damping  float64 `json:"damping,omitempty"`
	NumSets  uint32  `json:"numsets,omitempty"`
	MaxSize  int     `json:"maxsize,omitempty"`
}

// orDefault resolves a zero-valued parameter to its schema default.
func orDefault[T int | float64](v T, def float64) T {
	if v == 0 {
		return T(def)
	}
	return v
}

// Result is one registry invocation's outcome: the algorithm's raw
// output plus a one-line human-readable summary (what sage-run prints).
type Result struct {
	Value   any
	Summary string
}

// Spec describes one algorithm to the dispatchers.
type Spec struct {
	// Name is the canonical CLI key ("bfs", "kcore", ...).
	Name string
	// Title is the display name used in the paper's figures ("BFS",
	// "k-Core", ...).
	Title string
	Doc   string
	// Weighted algorithms are benchmarked on the weighted workload
	// variant (on unweighted inputs all edges count as weight 1).
	Weighted bool
	// SetCover algorithms run on the bipartite set-cover instance and
	// require Args.NumSets.
	SetCover bool
	// Fig1 marks the 19 problems of the paper's Figure 1 suite, in
	// registry order — the harness derives its problem list from them.
	Fig1 bool
	// Args is the parameter schema (beyond the graph).
	Args []ArgSpec
	// Validate, when non-nil, rejects argument combinations Run would
	// panic on; dispatchers call it before Run and surface the error. It
	// sees the caller's arguments, before defaults apply.
	Validate func(a Args) error
	// run invokes the algorithm under o on canonical arguments: every
	// schema parameter already carries its value or its default.
	run func(g graph.Adj, o *Options, a Args) Result
}

// Run invokes the algorithm under o and returns its result. Arguments are
// canonicalized first, so omitted (zero) parameters take the defaults the
// schema states.
func (s Spec) Run(g graph.Adj, o *Options, a Args) Result {
	return s.run(g, o, s.Canonical(a))
}

// Canonical normalizes a for s: parameters outside s's schema are zeroed
// and zero-valued schema parameters are replaced by their documented
// defaults. Two argument sets that select the same computation therefore
// canonicalize to equal Args — the property result caches key on.
func (s Spec) Canonical(a Args) Args {
	var out Args
	for _, p := range s.Args {
		switch p.Name {
		case "src":
			out.Src = a.Src
		case "k":
			out.K = orDefault(a.K, p.Default)
		case "eps":
			out.Eps = orDefault(a.Eps, p.Default)
		case "maxiters":
			out.MaxIters = orDefault(a.MaxIters, p.Default)
		case "beta":
			out.Beta = orDefault(a.Beta, p.Default)
		case "damping":
			out.Damping = orDefault(a.Damping, p.Default)
		case "numsets":
			out.NumSets = a.NumSets
		case "maxsize":
			out.MaxSize = a.MaxSize
		}
	}
	return out
}

// Common parameter specs.
var (
	srcArg     = ArgSpec{Name: "src", Kind: ArgVertex, Default: 0, Doc: "source vertex"}
	epsPRArg   = ArgSpec{Name: "eps", Kind: ArgFloat, Default: 1e-6, Doc: "L1 convergence threshold"}
	maxItArg   = ArgSpec{Name: "maxiters", Kind: ArgInt, Default: 100, Doc: "iteration cap"}
	dampingArg = ArgSpec{Name: "damping", Kind: ArgFloat, Default: 0.85, Doc: "damping factor"}
)

// countDistinct counts distinct labels.
func countDistinct(labels []uint32) int {
	distinct := map[uint32]bool{}
	for _, l := range labels {
		distinct[l] = true
	}
	return len(distinct)
}

// registry is the authoritative list: the Figure 1 suite in the paper's
// order, then the PSAM-extension problems (§3.2).
var registry = []Spec{
	{
		Name: "bfs", Title: "BFS", Fig1: true,
		Doc:  "breadth-first-search tree (Figure 4)",
		Args: []ArgSpec{srcArg},
		run: func(g graph.Adj, o *Options, a Args) Result {
			parents := BFS(g, o, a.Src)
			reached := 0
			for _, p := range parents {
				if p != Infinity {
					reached++
				}
			}
			return Result{parents, fmt.Sprintf("reached %d of %d vertices", reached, g.NumVertices())}
		},
	},
	{
		Name: "wbfs", Title: "wBFS", Weighted: true, Fig1: true,
		Doc:  "integral-weight SSSP via bucketing (§4.3.1)",
		Args: []ArgSpec{srcArg},
		run: func(g graph.Adj, o *Options, a Args) Result {
			dist := WBFS(g, o, a.Src)
			return Result{dist, fmt.Sprintf("computed %d distances", len(dist))}
		},
	},
	{
		Name: "bellmanford", Title: "Bellman-Ford", Weighted: true, Fig1: true,
		Doc:  "general-weight SSSP (§4.3.1)",
		Args: []ArgSpec{srcArg},
		run: func(g graph.Adj, o *Options, a Args) Result {
			dist := BellmanFord(g, o, a.Src)
			return Result{dist, fmt.Sprintf("computed %d distances", len(dist))}
		},
	},
	{
		Name: "widest", Title: "Widest-Path", Weighted: true, Fig1: true,
		Doc:  "single-source widest paths (§4.3.1)",
		Args: []ArgSpec{srcArg},
		run: func(g graph.Adj, o *Options, a Args) Result {
			w := WidestPath(g, o, a.Src)
			return Result{w, fmt.Sprintf("computed %d widths", len(w))}
		},
	},
	{
		Name: "bc", Title: "Betweenness", Fig1: true,
		Doc:  "single-source betweenness dependencies",
		Args: []ArgSpec{srcArg},
		run: func(g graph.Adj, o *Options, a Args) Result {
			deps := Betweenness(g, o, a.Src)
			var maxDep float64
			for _, d := range deps {
				if d > maxDep {
					maxDep = d
				}
			}
			return Result{deps, fmt.Sprintf("max dependency %.2f", maxDep)}
		},
	},
	{
		Name: "spanner", Title: "O(k)-Spanner", Fig1: true,
		Doc:  "O(k)-spanner edges (k=0 selects ceil(log2 n))",
		Args: []ArgSpec{{Name: "k", Kind: ArgInt, Default: 0, Doc: "stretch parameter (0 = log2 n)"}},
		run: func(g graph.Adj, o *Options, a Args) Result {
			edges := Spanner(g, o, a.K)
			return Result{edges, fmt.Sprintf("spanner with %d edges (n=%d)", len(edges), g.NumVertices())}
		},
	},
	{
		Name: "ldd", Title: "LDD", Fig1: true,
		Doc:  "low-diameter decomposition (§4.3.2)",
		Args: []ArgSpec{{Name: "beta", Kind: ArgFloat, Default: 0.2, Doc: "decomposition parameter"}},
		run: func(g graph.Adj, o *Options, a Args) Result {
			res := LDD(g, o, a.Beta, o.Seed)
			return Result{res, fmt.Sprintf("decomposed in %d rounds", res.Rounds)}
		},
	},
	{
		Name: "cc", Title: "Connectivity", Fig1: true,
		Doc: "connected-component labels (LDD contraction, §4.3.2)",
		run: func(g graph.Adj, o *Options, a Args) Result {
			labels := Connectivity(g, o)
			return Result{labels, fmt.Sprintf("%d connected components", countDistinct(labels))}
		},
	},
	{
		Name: "forest", Title: "SpanningForest", Fig1: true,
		Doc: "spanning forest edges (Corollary C.3)",
		run: func(g graph.Adj, o *Options, a Args) Result {
			f := SpanningForest(g, o)
			return Result{f, fmt.Sprintf("spanning forest with %d edges", len(f))}
		},
	},
	{
		Name: "biconn", Title: "Biconnectivity", Fig1: true,
		Doc: "biconnected-component labeling (§4.3.2)",
		run: func(g graph.Adj, o *Options, a Args) Result {
			res := Biconnectivity(g, o)
			distinct := map[uint32]bool{}
			for v, l := range res.Label {
				if res.Parent[v] != uint32(v) && res.Parent[v] != Infinity {
					distinct[l] = true
				}
			}
			return Result{res, fmt.Sprintf("%d biconnected components (tree-edge labels)", len(distinct))}
		},
	},
	{
		Name: "mis", Title: "MIS", Fig1: true,
		Doc: "maximal independent set (§4.3.3)",
		run: func(g graph.Adj, o *Options, a Args) Result {
			in := MIS(g, o)
			count := 0
			for _, b := range in {
				if b {
					count++
				}
			}
			return Result{in, fmt.Sprintf("independent set of size %d", count)}
		},
	},
	{
		Name: "matching", Title: "Maximal-Matching", Fig1: true,
		Doc: "maximal matching (§4.3.3)",
		run: func(g graph.Adj, o *Options, a Args) Result {
			m := MaximalMatching(g, o)
			return Result{m, fmt.Sprintf("matching of size %d", len(m))}
		},
	},
	{
		Name: "coloring", Title: "Graph-Coloring", Fig1: true,
		Doc: "(Delta+1)-coloring (§4.3.3)",
		run: func(g graph.Adj, o *Options, a Args) Result {
			colors := Coloring(g, o)
			maxC := uint32(0)
			for _, c := range colors {
				if c > maxC {
					maxC = c
				}
			}
			return Result{colors, fmt.Sprintf("used %d colors", maxC+1)}
		},
	},
	{
		Name: "setcover", Title: "Apx-Set-Cover", SetCover: true, Fig1: true,
		Doc:  "approximate set cover on a bipartite instance (§4.3.4)",
		Args: []ArgSpec{{Name: "numsets", Kind: ArgVertex, Default: 0, Doc: "vertices [0, numsets) are sets (required)"}},
		run: func(g graph.Adj, o *Options, a Args) Result {
			cover := ApproxSetCover(g, o, a.NumSets)
			return Result{cover, fmt.Sprintf("cover of %d sets", len(cover))}
		},
	},
	{
		Name: "kcore", Title: "k-Core", Fig1: true,
		Doc: "coreness of every vertex (Julienne peeling, §4.3.4)",
		run: func(g graph.Adj, o *Options, a Args) Result {
			core := KCore(g, o)
			return Result{core, fmt.Sprintf("max coreness %d", MaxCore(core))}
		},
	},
	{
		Name: "densest", Title: "Apx-Dens-Subgraph", Fig1: true,
		Doc: "2(1+eps)-approximate densest subgraph (§4.3.4)",
		run: func(g graph.Adj, o *Options, a Args) Result {
			res := ApproxDensestSubgraph(g, o)
			return Result{res, fmt.Sprintf("density %.3f in %d rounds", res.Density, res.Rounds)}
		},
	},
	{
		Name: "tc", Title: "Triangle-Count", Fig1: true,
		Doc: "triangle count with work counters (§4.3.5)",
		run: func(g graph.Adj, o *Options, a Args) Result {
			res := TriangleCount(g, o)
			return Result{res, fmt.Sprintf("%d triangles (intersection work %d, total work %d)",
				res.Count, res.IntersectionWork, res.TotalWork)}
		},
	},
	{
		Name: "pagerank-iter", Title: "PageRank-Iter", Fig1: true,
		Doc: "one dense pull-based PageRank iteration from the uniform vector",
		run: func(g graph.Adj, o *Options, a Args) Result {
			n := int(g.NumVertices())
			prev := make([]float64, n)
			next := make([]float64, n)
			for i := range prev {
				prev[i] = 1 / float64(n)
			}
			diff := PageRankIter(g, o, prev, next)
			return Result{next, fmt.Sprintf("L1 change %.3g after one iteration", diff)}
		},
	},
	{
		Name: "pagerank", Title: "PageRank", Fig1: true,
		Doc:  "PageRank to convergence (§4.3.5)",
		Args: []ArgSpec{epsPRArg, maxItArg},
		run: func(g graph.Adj, o *Options, a Args) Result {
			ranks, iters := PageRank(g, o, a.Eps, a.MaxIters)
			return Result{ranks, fmt.Sprintf("converged in %d iterations", iters)}
		},
	},
	// PSAM extensions (§3.2): regular-model problems beyond the Figure 1
	// suite.
	{
		Name: "widestb", Title: "Widest-Path-Bucketed", Weighted: true,
		Doc:  "bucketing-based widest-path variant (§4.3.1)",
		Args: []ArgSpec{srcArg},
		run: func(g graph.Adj, o *Options, a Args) Result {
			w := WidestPathBucketed(g, o, a.Src)
			return Result{w, fmt.Sprintf("computed %d widths", len(w))}
		},
	},
	{
		Name: "ppr", Title: "Personalized-PageRank",
		Doc:  "personalized PageRank vector of src (§3.2)",
		Args: []ArgSpec{srcArg, dampingArg, {Name: "eps", Kind: ArgFloat, Default: 1e-9, Doc: "L1 convergence threshold"}, maxItArg},
		run: func(g graph.Adj, o *Options, a Args) Result {
			ranks, iters := PersonalizedPageRank(g, o, a.Src, a.Damping, a.Eps, a.MaxIters)
			return Result{ranks, fmt.Sprintf("personalized PageRank converged in %d iterations", iters)}
		},
	},
	{
		Name: "kclique", Title: "k-Clique",
		Doc:  "k-clique count over the degree-ordered DAG (§3.2)",
		Args: []ArgSpec{{Name: "k", Kind: ArgInt, Default: 4, Doc: "clique size (>= 3)"}},
		Validate: func(a Args) error {
			if a.K != 0 && a.K < 3 {
				return fmt.Errorf("kclique requires k >= 3 (got %d)", a.K)
			}
			return nil
		},
		run: func(g graph.Adj, o *Options, a Args) Result {
			c := KCliqueCount(g, o, a.K)
			return Result{c, fmt.Sprintf("%d %d-cliques", c, a.K)}
		},
	},
	{
		Name: "ktruss", Title: "k-Truss",
		Doc: "trussness of every edge (§3.2; Theta(m)-word output)",
		run: func(g graph.Adj, o *Options, a Args) Result {
			res := KTruss(g, o)
			maxT := uint32(0)
			for _, tr := range res.Trussness {
				if tr > maxT {
					maxT = tr
				}
			}
			return Result{res, fmt.Sprintf("max trussness %d over %d edges", maxT, len(res.Trussness))}
		},
	},
	{
		Name: "localcluster", Title: "Local-Cluster",
		Doc:  "low-conductance community around src via PPR sweep cut (§3.2)",
		Args: []ArgSpec{srcArg, dampingArg, {Name: "maxsize", Kind: ArgInt, Default: 0, Doc: "sweep-cut size cap (0 = unbounded)"}},
		run: func(g graph.Adj, o *Options, a Args) Result {
			res := LocalCluster(g, o, a.Src, a.Damping, a.MaxSize)
			return Result{res, fmt.Sprintf("cluster of %d vertices at conductance %.3f",
				len(res.Members), res.Conductance)}
		},
	},
}

// Registry returns the algorithm specs: the Figure 1 suite in the
// paper's order, then the extensions. The returned slice is shared; do
// not mutate it.
func Registry() []Spec { return registry }

// Lookup finds a spec by its canonical name.
func Lookup(name string) (Spec, bool) {
	for _, s := range registry {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Names returns the canonical names in registry order.
func Names() []string {
	out := make([]string, len(registry))
	for i, s := range registry {
		out[i] = s.Name
	}
	return out
}
