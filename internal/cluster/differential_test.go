package cluster_test

// The cluster differential suite: every registry algorithm, run through
// the router against a 3-replica fixture, must answer exactly what a
// direct single-process server answers — byte-identical bodies and
// identical X-Sage-* cost headers — across mmap and copy openings, and
// again after an update fan-out bumps generations (which also proves no
// replica serves a pre-update answer).
//
// Byte identity needs determinism: several algorithms break ties by CAS
// races (BFS parents, components hooks), so the whole suite pins the
// global worker count to 1 — every server in the fixture is in-process,
// so one knob covers the direct server, the router, and all replicas.
// The one legitimately nondeterministic response field, elapsed_ms, is
// normalized away before comparison.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"testing"

	"sage"
	"sage/internal/cluster/clustertest"
	"sage/internal/parallel"
)

// elapsedRE matches the wall-clock field, the only response bytes two
// identical runs legitimately disagree on.
var elapsedRE = regexp.MustCompile(`"elapsed_ms":[0-9.eE+-]+`)

func normalize(body []byte) []byte {
	return elapsedRE.ReplaceAll(body, []byte(`"elapsed_ms":0`))
}

// costHeaders are the headers the differential contract compares; a
// header absent on both sides also matches (cache hits carry no
// actuals).
var costHeaders = []string{
	"X-Sage-Cost-Model",
	"X-Sage-Cost-Predicted",
	"X-Sage-Cost-Actual",
	"X-Sage-Cost-Energy-NJ",
	"X-Sage-Generation",
	"X-Sage-Cache",
	"Content-Type",
}

// post issues one POST and returns status, raw body, and headers.
func post(t *testing.T, url string, body []byte) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading body: %v", url, err)
	}
	return resp.StatusCode, b, resp.Header
}

// setCoverInstance mirrors the harness's bipartite derivation: every
// vertex is a set covering its neighborhood.
func setCoverInstance(g *sage.Graph) (*sage.Graph, uint32) {
	raw := g.RawCSR()
	n := raw.NumVertices()
	edges := make([]sage.Edge, 0, raw.NumEdges())
	for v := uint32(0); v < n; v++ {
		for _, u := range raw.Neighbors(v) {
			edges = append(edges, sage.Edge{U: v, V: n + u})
		}
	}
	return sage.FromEdges(2*n, edges), n
}

// datasetFor maps a registry algorithm to the fixture dataset and args
// it runs on.
func datasetFor(a sage.Algorithm, numSets uint32) (string, sage.AlgoArgs) {
	switch {
	case a.SetCover:
		return "sc", sage.AlgoArgs{NumSets: numSets}
	case a.Weighted:
		return "wg", sage.AlgoArgs{}
	default:
		return "g", sage.AlgoArgs{}
	}
}

// compareRun runs one algorithm through both fronts and asserts the
// differential contract.
func compareRun(t *testing.T, directURL, routedURL, ds, algo string, args sage.AlgoArgs) {
	t.Helper()
	body, err := json.Marshal(args)
	if err != nil {
		t.Fatal(err)
	}
	path := fmt.Sprintf("/v1/run/%s/%s", ds, algo)
	dStatus, dBody, dHdr := post(t, directURL+path, body)
	rStatus, rBody, rHdr := post(t, routedURL+path, body)
	if dStatus != http.StatusOK {
		t.Fatalf("direct %s: status %d: %s", path, dStatus, dBody)
	}
	if rStatus != http.StatusOK {
		t.Fatalf("routed %s: status %d: %s", path, rStatus, rBody)
	}
	if !bytes.Equal(normalize(dBody), normalize(rBody)) {
		t.Fatalf("routed body differs from direct for %s:\ndirect: %s\nrouted: %s",
			path, normalize(dBody), normalize(rBody))
	}
	for _, h := range costHeaders {
		if d, r := dHdr.Get(h), rHdr.Get(h); d != r {
			t.Fatalf("%s: header %s differs: direct %q, routed %q", path, h, d, r)
		}
	}
}

// absentPairs finds k vertex pairs with no edge in either direction —
// update ops guaranteed to change the graph on every server.
func absentPairs(t *testing.T, g *sage.Graph, k int) [][2]uint32 {
	t.Helper()
	raw := g.RawCSR()
	n := g.NumVertices()
	var out [][2]uint32
	for d := uint32(1); d < n && len(out) < k; d++ {
		u, v := d/2, n-1-d/2
		if u == v || raw.HasEdge(u, v) || raw.HasEdge(v, u) {
			continue
		}
		out = append(out, [2]uint32{u, v})
	}
	if len(out) < k {
		t.Fatalf("could not find %d absent vertex pairs", k)
	}
	return out
}

// applyUpdate posts the same batch to both fronts and asserts the
// responses agree (generation included).
func applyUpdate(t *testing.T, directURL, routedURL, ds string, ops []sage.EdgeOp) {
	t.Helper()
	body, err := json.Marshal(map[string]any{"ops": ops})
	if err != nil {
		t.Fatal(err)
	}
	path := "/v1/update/" + ds
	dStatus, dBody, dHdr := post(t, directURL+path, body)
	rStatus, rBody, rHdr := post(t, routedURL+path, body)
	if dStatus != http.StatusOK || rStatus != http.StatusOK {
		t.Fatalf("update %s: direct %d (%s), routed %d (%s)", ds, dStatus, dBody, rStatus, rBody)
	}
	if !bytes.Equal(normalize(dBody), normalize(rBody)) {
		t.Fatalf("update %s: routed response differs:\ndirect: %s\nrouted: %s",
			ds, normalize(dBody), normalize(rBody))
	}
	if d, r := dHdr.Get("X-Sage-Generation"), rHdr.Get("X-Sage-Generation"); d != r || d == "" {
		t.Fatalf("update %s: generation headers direct %q vs routed %q", ds, d, r)
	}
}

func TestClusterDifferential(t *testing.T) {
	// One worker end to end: see the file comment. Restore for the rest
	// of the package's tests.
	prev := parallel.Workers()
	parallel.SetWorkers(1)
	t.Cleanup(func() { parallel.SetWorkers(prev) })

	g := sage.GenerateRMAT(8, 8, 0xd1f)
	wg, err := g.WithUniformWeights(0xbeef)
	if err != nil {
		t.Fatal(err)
	}
	sc, numSets := setCoverInstance(g)
	datasets := map[string]*sage.Graph{"g": g, "wg": wg, "sc": sc}

	algos := sage.Algorithms()
	if len(algos) < 24 {
		t.Fatalf("registry has %d algorithms, expected at least 24", len(algos))
	}

	for _, opening := range []struct {
		name string
		copy bool
	}{
		{"mmap", false},
		{"copy", true},
	} {
		t.Run(opening.name, func(t *testing.T) {
			c := clustertest.New(t, clustertest.Options{
				Replicas:    3,
				Replication: 2,
				Datasets:    datasets,
				Copy:        opening.copy,
			})
			direct := c.Direct(t)

			// Phase 1: every registry algorithm, fresh generation.
			for _, a := range algos {
				ds, args := datasetFor(a, numSets)
				compareRun(t, direct.URL, c.URL(), ds, a.Name, args)
			}

			// Phase 2: the same update batch through both fronts — the
			// router fans it out to every owner with the primary's
			// generation attached.
			pairs := absentPairs(t, g, 4)
			var ops, wops []sage.EdgeOp
			for _, p := range pairs[:2] {
				ops = append(ops,
					sage.EdgeOp{U: p[0], V: p[1]}, sage.EdgeOp{U: p[1], V: p[0]})
				wops = append(wops,
					sage.EdgeOp{U: p[0], V: p[1], W: 3}, sage.EdgeOp{U: p[1], V: p[0], W: 3})
			}
			// Also delete one edge present in the base, so the overlay
			// exercises both op kinds.
			del := pairs[2]
			ops = append(ops, sage.EdgeOp{U: del[0], V: del[1]}) // add...
			applyUpdate(t, direct.URL, c.URL(), "g", ops)
			applyUpdate(t, direct.URL, c.URL(), "wg", wops)
			applyUpdate(t, direct.URL, c.URL(), "g",
				[]sage.EdgeOp{{U: del[0], V: del[1], Del: true}}) // ...then delete
			for _, r := range c.Owners("g") {
				t.Logf("owner of g: %s", r.Name)
			}

			// Phase 3: every algorithm again at the bumped generations.
			// Any stale answer — a replica cache hit keyed at the old
			// generation, a replica that missed the fan-out — diverges
			// from the direct server here.
			for _, a := range algos {
				ds, args := datasetFor(a, numSets)
				compareRun(t, direct.URL, c.URL(), ds, a.Name, args)
			}
		})
	}
}
