package cluster_test

// The router endpoints that neither the differential nor the fault suite
// drives: the merged catalog, the relayed registry, the topology report,
// liveness, and readiness under drain.

import (
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"testing"

	"sage"
	"sage/internal/cluster/clustertest"
)

// get issues one GET and returns status, raw body, and headers.
func get(t *testing.T, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, b, resp.Header
}

// datasetEntry is the part of a merged /v1/datasets entry the router
// adds to the replica's own.
type datasetEntry struct {
	Name     string   `json:"name"`
	ServedBy string   `json:"served_by"`
	Replicas []string `json:"replicas"`
}

// listDatasets GETs the router's merged catalog, keyed by dataset name,
// and fails the test on a status other than 200 or a dataset listed
// twice.
func listDatasets(t *testing.T, c *clustertest.Cluster) map[string]datasetEntry {
	t.Helper()
	status, body, _ := get(t, c.URL()+"/v1/datasets")
	if status != http.StatusOK {
		t.Fatalf("/v1/datasets: %d: %s", status, body)
	}
	var l struct {
		Datasets []datasetEntry `json:"datasets"`
	}
	if err := json.Unmarshal(body, &l); err != nil {
		t.Fatal(err)
	}
	out := map[string]datasetEntry{}
	for _, e := range l.Datasets {
		if _, dup := out[e.Name]; dup {
			t.Fatalf("/v1/datasets lists %q twice: %s", e.Name, body)
		}
		out[e.Name] = e
	}
	return out
}

func TestRouterEndpoints(t *testing.T) {
	g := sage.GenerateRMAT(6, 4, 0x5)
	// Every replica registers every dataset, so each listing reaches the
	// router from both owners and from the one replica that owns none.
	datasets := map[string]*sage.Graph{"a": g, "b": g, "c": g, "d": g, "e": g}
	c := clustertest.New(t, clustertest.Options{
		Replicas:    3,
		Replication: 2,
		Datasets:    datasets,
	})

	status, body, _ := get(t, c.URL()+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("/healthz: %d: %s", status, body)
	}
	var health struct {
		Role string `json:"role"`
	}
	if err := json.Unmarshal(body, &health); err != nil || health.Role != "router" {
		t.Fatalf("/healthz body %s (err %v)", body, err)
	}

	// Healthy cluster: each dataset once, served by its primary.
	listed := listDatasets(t, c)
	if len(listed) != len(datasets) {
		t.Fatalf("/v1/datasets lists %d datasets, want %d: %v", len(listed), len(datasets), listed)
	}
	for name := range datasets {
		owners := c.Router.Owners(name)
		e := listed[name]
		if e.ServedBy != owners[0] || !slices.Equal(e.Replicas, owners) {
			t.Errorf("dataset %s: served_by %q replicas %v, want %q of %v",
				name, e.ServedBy, e.Replicas, owners[0], owners)
		}
	}

	// The topology report names the same owners the router routes by.
	for name := range datasets {
		status, body, _ := get(t, c.URL()+"/v1/cluster?dataset="+name)
		var topo struct {
			Dataset string   `json:"dataset"`
			Owners  []string `json:"owners"`
		}
		if err := json.Unmarshal(body, &topo); err != nil || status != http.StatusOK {
			t.Fatalf("/v1/cluster?dataset=%s: %d: %s (err %v)", name, status, body, err)
		}
		if topo.Dataset != name || !slices.Equal(topo.Owners, c.Router.Owners(name)) {
			t.Errorf("/v1/cluster?dataset=%s reports %s owned by %v, want %v",
				name, topo.Dataset, topo.Owners, c.Router.Owners(name))
		}
	}

	// The registry listing is relayed verbatim from a replica.
	status, routed, hdr := get(t, c.URL()+"/v1/algorithms")
	servedBy := c.Replica(hdr.Get("X-Sage-Routed-To"))
	if status != http.StatusOK || servedBy == nil {
		t.Fatalf("/v1/algorithms: %d routed to %q", status, hdr.Get("X-Sage-Routed-To"))
	}
	if _, direct, _ := get(t, servedBy.URL()+"/v1/algorithms"); string(direct) != string(routed) {
		t.Fatalf("/v1/algorithms through the router differs from %s's own:\nrouted: %s\ndirect: %s",
			servedBy.Name, routed, direct)
	}

	// A dead primary hands its datasets to the secondary, never to a
	// replica that does not own them.
	victim := c.Owners("a")[0]
	victim.Kill()
	listed = listDatasets(t, c)
	if len(listed) != len(datasets) {
		t.Fatalf("with %s down /v1/datasets lists %d datasets, want %d", victim.Name, len(listed), len(datasets))
	}
	for name := range datasets {
		owners := c.Router.Owners(name)
		want := owners[0]
		if want == victim.Name {
			want = owners[1]
		}
		if got := listed[name].ServedBy; got != want {
			t.Errorf("with %s down, dataset %s served_by %q, want %q (owners %v)",
				victim.Name, name, got, want, owners)
		}
	}

	// No replica reachable: the listing is the router's own 502.
	for _, r := range c.Replicas {
		r.Kill()
	}
	status, body, hdr = get(t, c.URL()+"/v1/datasets")
	var e errorBody
	if err := json.Unmarshal(body, &e); err != nil || status != http.StatusBadGateway || e.Reason != "no_replica" {
		t.Fatalf("/v1/datasets with every replica down: %d: %s (err %v)", status, body, err)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("no_replica listing carries no Retry-After")
	}

	// Draining outranks everything else /readyz could say.
	c.Router.BeginDrain()
	status, body, _ = get(t, c.URL()+"/readyz")
	var ready struct {
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal(body, &ready); err != nil || status != http.StatusServiceUnavailable || ready.Reason != "draining" {
		t.Fatalf("/readyz after BeginDrain: %d: %s (err %v)", status, body, err)
	}
}
