package sage

import (
	"context"
	"fmt"
	"strings"

	"sage/internal/algos"
)

// This file is the public face of the unified algorithm registry: an
// enumerable description of every algorithm (name, parameter schema) and
// a name-based invoker that dispatches through the same per-run session
// machinery as the typed methods. The sage-run CLI and the experiment
// harness both derive their dispatch from the same underlying registry,
// so an algorithm added there is immediately runnable everywhere.

// ParamKind is the type of one algorithm parameter; it prints and
// marshals by name ("vertex", "int", "float").
type ParamKind = algos.ArgKind

// Parameter kinds.
const (
	// ParamVertex is a vertex id.
	ParamVertex = algos.ArgVertex
	// ParamInt is an integer parameter.
	ParamInt = algos.ArgInt
	// ParamFloat is a floating-point parameter.
	ParamFloat = algos.ArgFloat
)

// AlgorithmParam describes one parameter of an algorithm beyond the
// graph. Name matches the AlgoArgs field it binds to (lower-cased);
// Default is the value a zero AlgoArgs field selects.
type AlgorithmParam = algos.ArgSpec

// Algorithm describes one registered algorithm. Its JSON form is an entry
// of sage-serve's /v1/algorithms listing; the params double as the run
// endpoint's args schema.
type Algorithm struct {
	// Name is the canonical key accepted by RunAlgorithm ("bfs", ...).
	Name string `json:"name"`
	// Title is the display name used in the paper's figures.
	Title string `json:"title"`
	// Doc is a one-line description.
	Doc string `json:"doc"`
	// Weighted algorithms interpret edge weights (all 1 on unweighted
	// inputs).
	Weighted bool `json:"weighted,omitempty"`
	// SetCover algorithms run on a bipartite set-cover instance and
	// require AlgoArgs.NumSets.
	SetCover bool `json:"setcover,omitempty"`
	// Params is the parameter schema beyond the graph. The slice is the
	// registry's own; do not mutate it.
	Params []AlgorithmParam `json:"params,omitempty"`
}

// Algorithms enumerates the registry: the paper's Figure 1 suite in
// order, then the PSAM-extension problems.
func Algorithms() []Algorithm {
	specs := algos.Registry()
	out := make([]Algorithm, len(specs))
	for i, s := range specs {
		out[i] = Algorithm{
			Name: s.Name, Title: s.Title, Doc: s.Doc,
			Weighted: s.Weighted, SetCover: s.SetCover, Params: s.Args,
		}
	}
	return out
}

// AlgorithmNames returns the canonical registry names in order.
func AlgorithmNames() []string { return algos.Names() }

// AlgoArgs carries the per-call parameters of a registry invocation.
// Zero values select each algorithm's documented default (see
// Algorithms()[i].Params). The JSON names match the parameter schema
// names, so a request body like {"src": 3, "maxiters": 50} maps directly
// — the wire format of the sage-serve run endpoint.
type AlgoArgs = algos.Args

// CanonicalArgs normalizes args against the named algorithm's parameter
// schema: parameters the algorithm does not take are zeroed, and omitted
// (zero-valued) parameters are replaced by their documented defaults.
// Two invocations that select the same computation therefore produce
// identical AlgoArgs — the property result caches key on. Unknown names
// report the registry's contents.
func CanonicalArgs(name string, args AlgoArgs) (AlgoArgs, error) {
	spec, err := lookup(name)
	if err != nil {
		return AlgoArgs{}, err
	}
	return spec.Canonical(args), nil
}

// lookup finds a registry entry; unknown names report the registry's
// contents.
func lookup(name string) (algos.Spec, error) {
	spec, ok := algos.Lookup(name)
	if !ok {
		return spec, fmt.Errorf("sage: unknown algorithm %q (known: %s)",
			name, strings.Join(algos.Names(), ", "))
	}
	return spec, nil
}

// EstimateDRAMWords is the serving DRAM gate's seed: the peak DRAM words
// a run of the named algorithm on g is charged before it has run on that
// dataset (after, the gate charges the peak it learned). It is one rule,
// 16n + 2m words over n vertices and m stored arcs: Table 1's O(n) with
// room for the O(m) problems (tc, kclique, ktruss), measured to bound
// every registry algorithm's PeakDRAMWords on the generator families.
func EstimateDRAMWords(name string, g *Graph) (int64, error) {
	if _, err := lookup(name); err != nil {
		return 0, err
	}
	return 16*int64(g.NumVertices()) + 2*int64(g.NumEdges()), nil
}

// AlgoResult is a registry invocation's outcome.
type AlgoResult struct {
	// Value is the algorithm's raw output (e.g. []uint32 parents for
	// "bfs"); consult the typed methods for each algorithm's type.
	Value any
	// Summary is a one-line human-readable result description.
	Summary string
	// Stats is the invocation's own PSAM accounting.
	Stats RunStats
}

// RunAlgorithm invokes a registered algorithm by name as its own Run:
// private counters merged into the engine aggregate, cancellation at
// frontier/iteration boundaries, per-call stats in the result. Unknown
// names report the registry's contents.
func (e *Engine) RunAlgorithm(ctx context.Context, name string, g *Graph, args AlgoArgs) (*AlgoResult, error) {
	spec, err := lookup(name)
	if err != nil {
		return nil, err
	}
	if spec.SetCover && args.NumSets == 0 {
		return nil, fmt.Errorf("sage: algorithm %q requires AlgoArgs.NumSets > 0", name)
	}
	for _, a := range spec.Args {
		if a.Name == "src" && args.Src >= g.NumVertices() {
			return nil, fmt.Errorf("sage: source vertex %d out of range (graph has %d vertices)",
				args.Src, g.NumVertices())
		}
	}
	if spec.Validate != nil {
		if err := spec.Validate(args); err != nil {
			return nil, fmt.Errorf("sage: %w", err)
		}
	}
	r := e.NewRun()
	defer e.recycle(r)
	res, err := capture(r, ctx, func(o *algos.Options) algos.Result {
		return spec.Run(g.use(), o, args)
	})
	if err != nil {
		return nil, err
	}
	return &AlgoResult{Value: res.Value, Summary: res.Summary, Stats: r.Stats()}, nil
}
