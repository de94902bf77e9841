package sage_test

// The typed methods and the registry are two spellings of one surface.
// These tests hold them together: every registry entry has a typed call
// that computes the same value, both receivers expose the same methods,
// and a default is whatever the schema says — nothing else.

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"sage"
)

// typedCalls maps every registry name to its typed method, called with
// the (canonical) arguments the registry would run with. A registry
// entry without a row fails TestRegistryMatchesTypedAPI, so the table
// grows with the registry.
var typedCalls = map[string]func(e *sage.Engine, g *sage.Graph, a sage.AlgoArgs) (any, error){
	"bfs":         func(e *sage.Engine, g *sage.Graph, a sage.AlgoArgs) (any, error) { return e.BFS(bg, g, a.Src) },
	"wbfs":        func(e *sage.Engine, g *sage.Graph, a sage.AlgoArgs) (any, error) { return e.WBFS(bg, g, a.Src) },
	"bellmanford": func(e *sage.Engine, g *sage.Graph, a sage.AlgoArgs) (any, error) { return e.BellmanFord(bg, g, a.Src) },
	"widest":      func(e *sage.Engine, g *sage.Graph, a sage.AlgoArgs) (any, error) { return e.WidestPath(bg, g, a.Src) },
	"widestb": func(e *sage.Engine, g *sage.Graph, a sage.AlgoArgs) (any, error) {
		return e.WidestPathBucketed(bg, g, a.Src)
	},
	"bc":       func(e *sage.Engine, g *sage.Graph, a sage.AlgoArgs) (any, error) { return e.Betweenness(bg, g, a.Src) },
	"spanner":  func(e *sage.Engine, g *sage.Graph, a sage.AlgoArgs) (any, error) { return e.Spanner(bg, g, a.K) },
	"ldd":      func(e *sage.Engine, g *sage.Graph, a sage.AlgoArgs) (any, error) { return e.LDD(bg, g, a.Beta) },
	"cc":       func(e *sage.Engine, g *sage.Graph, _ sage.AlgoArgs) (any, error) { return e.Connectivity(bg, g) },
	"forest":   func(e *sage.Engine, g *sage.Graph, _ sage.AlgoArgs) (any, error) { return e.SpanningForest(bg, g) },
	"biconn":   func(e *sage.Engine, g *sage.Graph, _ sage.AlgoArgs) (any, error) { return e.Biconnectivity(bg, g) },
	"mis":      func(e *sage.Engine, g *sage.Graph, _ sage.AlgoArgs) (any, error) { return e.MIS(bg, g) },
	"matching": func(e *sage.Engine, g *sage.Graph, _ sage.AlgoArgs) (any, error) { return e.MaximalMatching(bg, g) },
	"coloring": func(e *sage.Engine, g *sage.Graph, _ sage.AlgoArgs) (any, error) { return e.Coloring(bg, g) },
	"setcover": func(e *sage.Engine, g *sage.Graph, a sage.AlgoArgs) (any, error) {
		return e.ApproxSetCover(bg, g, a.NumSets)
	},
	"kcore": func(e *sage.Engine, g *sage.Graph, _ sage.AlgoArgs) (any, error) { return e.KCore(bg, g) },
	"densest": func(e *sage.Engine, g *sage.Graph, _ sage.AlgoArgs) (any, error) {
		return e.ApproxDensestSubgraph(bg, g)
	},
	"tc":      func(e *sage.Engine, g *sage.Graph, _ sage.AlgoArgs) (any, error) { return e.TriangleCount(bg, g) },
	"kclique": func(e *sage.Engine, g *sage.Graph, a sage.AlgoArgs) (any, error) { return e.KCliqueCount(bg, g, a.K) },
	"ktruss":  func(e *sage.Engine, g *sage.Graph, _ sage.AlgoArgs) (any, error) { return e.KTruss(bg, g) },
	"pagerank": func(e *sage.Engine, g *sage.Graph, a sage.AlgoArgs) (any, error) {
		ranks, _, err := e.PageRank(bg, g, a.Eps, a.MaxIters)
		return ranks, err
	},
	"ppr": func(e *sage.Engine, g *sage.Graph, a sage.AlgoArgs) (any, error) {
		ranks, _, err := e.PersonalizedPageRank(bg, g, a.Src, a.Damping, a.Eps, a.MaxIters)
		return ranks, err
	},
	"localcluster": func(e *sage.Engine, g *sage.Graph, a sage.AlgoArgs) (any, error) {
		return e.LocalCluster(bg, g, a.Src, a.Damping, a.MaxSize)
	},
	// The registry entry runs one iteration from the uniform vector.
	"pagerank-iter": func(e *sage.Engine, g *sage.Graph, _ sage.AlgoArgs) (any, error) {
		n := int(g.NumVertices())
		prev, next := make([]float64, n), make([]float64, n)
		for i := range prev {
			prev[i] = 1 / float64(n)
		}
		_, err := e.PageRankIter(bg, g, prev, next)
		return next, err
	},
}

// registryInputs returns the graph and the required arguments a registry
// entry runs on: the weighted variant for weighted algorithms, a tiny
// bipartite instance (sets {0,1} over elements {2,3,4}) for set cover.
func registryInputs(t *testing.T) func(a sage.Algorithm) (*sage.Graph, sage.AlgoArgs) {
	g := sage.GenerateRMAT(9, 8, 37)
	wg := weighted(t, g, 7)
	sc := sage.FromEdges(5, []sage.Edge{{U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 3}, {U: 1, V: 4}})
	return func(a sage.Algorithm) (*sage.Graph, sage.AlgoArgs) {
		switch {
		case a.SetCover:
			return sc, sage.AlgoArgs{NumSets: 2}
		case a.Weighted:
			return wg, sage.AlgoArgs{}
		}
		return g, sage.AlgoArgs{}
	}
}

// oneWorker pins the worker pool to one worker for the test, so that
// tie-breaking — and with it every output and counter — is deterministic.
func oneWorker(t *testing.T) {
	old := sage.Workers()
	sage.SetWorkers(1)
	t.Cleanup(func() { sage.SetWorkers(old) })
}

// TestRegistryMatchesTypedAPI: for every registry entry, the typed method
// called with the schema's defaults and RunAlgorithm called with zero
// arguments compute the same value.
func TestRegistryMatchesTypedAPI(t *testing.T) {
	oneWorker(t)
	inputs := registryInputs(t)
	e := sage.NewEngine()
	for _, a := range sage.Algorithms() {
		call, ok := typedCalls[a.Name]
		if !ok {
			t.Errorf("registry algorithm %q has no typed-call row", a.Name)
			continue
		}
		g, args := inputs(a)
		res, err := e.RunAlgorithm(bg, a.Name, g, args)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		defaults, err := sage.CanonicalArgs(a.Name, args)
		if err != nil {
			t.Fatal(err)
		}
		want, err := call(e, g, defaults)
		if err != nil {
			t.Fatalf("%s (typed): %v", a.Name, err)
		}
		if !reflect.DeepEqual(res.Value, want) {
			t.Errorf("%s: registry value (%T) differs from the typed method's (%T)", a.Name, res.Value, want)
		}
	}
	if len(typedCalls) != len(sage.Algorithms()) {
		t.Errorf("%d typed-call rows for %d registry entries", len(typedCalls), len(sage.Algorithms()))
	}
}

// TestDefaultsStatedOnce: a parameter's default lives in the schema and
// nowhere else. Zero arguments and the schema's defaults written out
// canonicalize to the same AlgoArgs — the property the result cache keys
// on — and run the same computation.
func TestDefaultsStatedOnce(t *testing.T) {
	oneWorker(t)
	inputs := registryInputs(t)
	e := sage.NewEngine()
	for _, a := range sage.Algorithms() {
		g, zero := inputs(a)
		// Spell the defaults out through the wire names, which must match
		// the schema names.
		stated := map[string]any{}
		for _, p := range a.Params {
			if p.Default != 0 {
				stated[p.Name] = p.Default
			}
		}
		if len(stated) == 0 {
			continue
		}
		body, err := json.Marshal(stated)
		if err != nil {
			t.Fatal(err)
		}
		explicit := zero
		if err := json.Unmarshal(body, &explicit); err != nil {
			t.Fatalf("%s: %s: %v", a.Name, body, err)
		}
		if explicit == zero {
			t.Fatalf("%s: %s set no AlgoArgs field", a.Name, body)
		}
		c0, err0 := sage.CanonicalArgs(a.Name, zero)
		c1, err1 := sage.CanonicalArgs(a.Name, explicit)
		if err0 != nil || err1 != nil {
			t.Fatal(err0, err1)
		}
		if c0 != c1 || c1 != explicit {
			t.Errorf("%s: canonical forms differ: zero %+v, explicit %+v (stated %+v)", a.Name, c0, c1, explicit)
		}
		r0, err0 := e.RunAlgorithm(bg, a.Name, g, zero)
		r1, err1 := e.RunAlgorithm(bg, a.Name, g, explicit)
		if err0 != nil || err1 != nil {
			t.Fatal(err0, err1)
		}
		if r0.Summary != r1.Summary || r0.Stats.PSAMCost != r1.Stats.PSAMCost {
			t.Errorf("%s: zero args ran %q at cost %d, explicit defaults %q at cost %d",
				a.Name, r0.Summary, r0.Stats.PSAMCost, r1.Summary, r1.Stats.PSAMCost)
		}
	}
	// Parameters outside the schema do not reach the cache key.
	if c, _ := sage.CanonicalArgs("bfs", sage.AlgoArgs{Src: 3, Eps: 0.5, K: 9}); c != (sage.AlgoArgs{Src: 3}) {
		t.Errorf("bfs canonical args kept foreign parameters: %+v", c)
	}
}

// TestEngineAndRunShareMethodSet: the typed methods are declared once and
// embedded by both receivers, so *Engine and *Run must expose the same
// algorithm methods with identical signatures — one per registry entry.
func TestEngineAndRunShareMethodSet(t *testing.T) {
	signature := func(m reflect.Method) string {
		s := m.Type.String() // func(receiver, args...) results
		return s[strings.Index(s, ",")+1:]
	}
	engine := reflect.TypeOf(&sage.Engine{})
	run := reflect.TypeOf(&sage.Run{})
	ctx := reflect.TypeOf((*context.Context)(nil)).Elem()
	graph := reflect.TypeOf(&sage.Graph{})
	// An algorithm method is func(ctx, *Graph, ...) (..., error).
	isAlgorithm := func(m reflect.Method) bool {
		return m.Type.NumIn() >= 3 && m.Type.In(1) == ctx && m.Type.In(2) == graph
	}
	count := 0
	for i := range run.NumMethod() {
		m := run.Method(i)
		if !isAlgorithm(m) {
			continue
		}
		count++
		em, ok := engine.MethodByName(m.Name)
		if !ok {
			t.Errorf("Run.%s has no Engine counterpart", m.Name)
			continue
		}
		if signature(m) != signature(em) {
			t.Errorf("%s: Run has %s, Engine has %s", m.Name, signature(m), signature(em))
		}
	}
	if want := len(sage.Algorithms()); count != want {
		t.Errorf("Run exposes %d algorithm methods, registry has %d entries", count, want)
	}
	for i := range engine.NumMethod() {
		m := engine.Method(i)
		if _, ok := run.MethodByName(m.Name); !ok && isAlgorithm(m) {
			t.Errorf("Engine.%s has no Run counterpart", m.Name)
		}
	}
}

// TestParseModeAndStrategy: the one name table both binaries read.
func TestParseModeAndStrategy(t *testing.T) {
	if s, err := sage.ParseStrategy("auto"); err != nil || s != sage.Auto {
		t.Fatalf(`ParseStrategy("auto") = %v, %v`, s, err)
	}
	if _, err := sage.ParseStrategy("fastest"); err == nil || !strings.Contains(err.Error(), "chunked, blocked, sparse, auto") {
		t.Fatalf("unknown strategy should list the known names, got: %v", err)
	}
	if m, err := sage.ParseMode("memorymode"); err != nil || m != sage.MemoryMode {
		t.Fatalf(`ParseMode("memorymode") = %v, %v`, m, err)
	}
	if _, err := sage.ParseMode("tape"); err == nil || !strings.Contains(err.Error(), "appdirect") {
		t.Fatalf("unknown mode should list the known names, got: %v", err)
	}
}
