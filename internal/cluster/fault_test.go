package cluster_test

// Fault-injection suite: a killed replica must cost reads one failover
// and writes a documented, machine-readable 502 — and when the replica
// comes back, its WAL replay must put it exactly where its peers are, so
// a retried batch converges every owner onto one generation.

import (
	"encoding/json"
	"net/http"
	"testing"

	"sage"
	"sage/internal/cluster/clustertest"
	"sage/internal/parallel"
)

// errorBody decodes the router's JSON error contract.
type errorBody struct {
	Error     string   `json:"error"`
	Reason    string   `json:"reason"`
	Replica   string   `json:"replica"`
	AppliedTo []string `json:"applied_to"`
}

// updateOps builds the wire body for one two-op (symmetric edge) batch.
func updateOps(t *testing.T, u, v uint32) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]any{"ops": []sage.EdgeOp{
		{U: u, V: v}, {U: v, V: u}}})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// genOf runs cc on the replica (or router) directly and returns the
// generation the response reports plus its normalized body.
func genOf(t *testing.T, base string) (string, []byte) {
	t.Helper()
	status, body, hdr := post(t, base+"/v1/run/g/cc", []byte(`{}`))
	if status != http.StatusOK {
		t.Fatalf("run on %s: status %d: %s", base, status, body)
	}
	return hdr.Get("X-Sage-Generation"), normalize(body)
}

func TestClusterReplicaKillAndRecover(t *testing.T) {
	prev := parallel.Workers()
	parallel.SetWorkers(1)
	t.Cleanup(func() { parallel.SetWorkers(prev) })

	g := sage.GenerateRMAT(7, 8, 0x99)
	c := clustertest.New(t, clustertest.Options{
		Replicas:    3,
		Replication: 2,
		Datasets:    map[string]*sage.Graph{"g": g},
	})
	owners := c.Owners("g")
	primary, secondary := owners[0], owners[1]
	pairs := absentPairs(t, g, 4)

	// Baseline: a run and a durable update through the router.
	if status, body, _ := post(t, c.URL()+"/v1/run/g/cc", []byte(`{}`)); status != http.StatusOK {
		t.Fatalf("baseline run: %d: %s", status, body)
	}
	if status, body, hdr := post(t, c.URL()+"/v1/update/g",
		updateOps(t, pairs[0][0], pairs[0][1])); status != http.StatusOK {
		t.Fatalf("baseline update: %d: %s", status, body)
	} else if gen := hdr.Get("X-Sage-Generation"); gen != "2" {
		t.Fatalf("baseline update generation %q, want 2", gen)
	}

	// Kill the primary owner. Reads must route around it.
	primary.Kill()
	status, body, hdr := post(t, c.URL()+"/v1/run/g/cc", []byte(`{}`))
	if status != http.StatusOK {
		t.Fatalf("read with primary down: %d: %s", status, body)
	}
	if got := hdr.Get("X-Sage-Routed-To"); got != secondary.Name {
		t.Fatalf("read served by %q, want failover to %q", got, secondary.Name)
	}

	// Writes must not: the documented 502 with the primary named.
	status, body, hdr = post(t, c.URL()+"/v1/update/g", updateOps(t, pairs[1][0], pairs[1][1]))
	if status != http.StatusBadGateway {
		t.Fatalf("write with primary down: %d: %s", status, body)
	}
	var e errorBody
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("decoding error body %q: %v", body, err)
	}
	if e.Reason != "replica_down" || e.Replica != primary.Name {
		t.Fatalf("error contract: got reason=%q replica=%q, want replica_down/%s: %s",
			e.Reason, e.Replica, primary.Name, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("write rejection carries no Retry-After")
	}
	if len(e.AppliedTo) != 0 {
		t.Fatalf("primary-down failure claims the batch applied to %v", e.AppliedTo)
	}

	// Restart: the WAL must replay the baseline batch, after which the
	// failed write retries cleanly and every owner reports the same
	// generation and the same answer.
	if replayed := primary.Restart(t); replayed < 1 {
		t.Fatalf("restart replayed %d batches, want >= 1", replayed)
	}
	status, body, hdr = post(t, c.URL()+"/v1/update/g", updateOps(t, pairs[1][0], pairs[1][1]))
	if status != http.StatusOK {
		t.Fatalf("write after restart: %d: %s", status, body)
	}
	if gen := hdr.Get("X-Sage-Generation"); gen != "3" {
		t.Fatalf("post-restart update generation %q, want 3", gen)
	}
	pGen, pBody := genOf(t, primary.URL())
	sGen, sBody := genOf(t, secondary.URL())
	if pGen != "3" || sGen != "3" {
		t.Fatalf("owners diverged: primary gen %s, secondary gen %s", pGen, sGen)
	}
	if string(pBody) != string(sBody) {
		t.Fatalf("owners answer differently after recovery:\nprimary:   %s\nsecondary: %s", pBody, sBody)
	}

	// A read through the router answers what the primary answers. The
	// restarted primary reopened at a low generation and climbed back to
	// 3, so a generation the router saw before the kill must not stand in
	// for this state. genOf just ran the same query on the primary, so the
	// answer is the primary's own cache hit, relayed.
	status, body, hdr = post(t, c.URL()+"/v1/run/g/cc", []byte(`{}`))
	if status != http.StatusOK {
		t.Fatalf("routed read after recovery: %d: %s", status, body)
	}
	if gen := hdr.Get("X-Sage-Generation"); gen != pGen {
		t.Fatalf("routed read reports generation %q, primary %q", gen, pGen)
	}
	if got := normalize(body); string(got) != string(pBody) {
		t.Fatalf("routed read differs from the primary:\nrouted:  %s\nprimary: %s", got, pBody)
	}
	if hdr.Get("X-Sage-Cache") != "hit" || hdr.Get("X-Sage-Routed-To") != primary.Name {
		t.Fatalf("routed read: X-Sage-Cache=%q X-Sage-Routed-To=%q, want a hit from %s",
			hdr.Get("X-Sage-Cache"), hdr.Get("X-Sage-Routed-To"), primary.Name)
	}
}

func TestClusterSecondaryKillFanout(t *testing.T) {
	prev := parallel.Workers()
	parallel.SetWorkers(1)
	t.Cleanup(func() { parallel.SetWorkers(prev) })

	g := sage.GenerateRMAT(7, 8, 0x7a)
	c := clustertest.New(t, clustertest.Options{
		Replicas:    3,
		Replication: 2,
		Datasets:    map[string]*sage.Graph{"g": g},
	})
	owners := c.Owners("g")
	primary, secondary := owners[0], owners[1]
	pairs := absentPairs(t, g, 2)

	// Kill the secondary: the primary applies, the fan-out fails, and the
	// error must say exactly that — including where the batch landed.
	secondary.Kill()
	status, body, _ := post(t, c.URL()+"/v1/update/g", updateOps(t, pairs[0][0], pairs[0][1]))
	if status != http.StatusBadGateway {
		t.Fatalf("update with secondary down: %d: %s", status, body)
	}
	var e errorBody
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("decoding error body %q: %v", body, err)
	}
	if e.Reason != "replica_down" || e.Replica != secondary.Name {
		t.Fatalf("error contract: reason=%q replica=%q, want replica_down/%s",
			e.Reason, e.Replica, secondary.Name)
	}
	if len(e.AppliedTo) != 1 || e.AppliedTo[0] != primary.Name {
		t.Fatalf("applied_to = %v, want [%s]", e.AppliedTo, primary.Name)
	}

	// Reads still serve (from the primary).
	if status, body, _ := post(t, c.URL()+"/v1/run/g/cc", []byte(`{}`)); status != http.StatusOK {
		t.Fatalf("read with secondary down: %d: %s", status, body)
	}

	// Restart the secondary and retry the SAME batch — idempotent on the
	// primary, applied for real on the secondary, converging both onto
	// the primary's generation via the sync floor.
	secondary.Restart(t)
	status, body, hdr := post(t, c.URL()+"/v1/update/g", updateOps(t, pairs[0][0], pairs[0][1]))
	if status != http.StatusOK {
		t.Fatalf("retried update: %d: %s", status, body)
	}
	gen := hdr.Get("X-Sage-Generation")
	pGen, pBody := genOf(t, primary.URL())
	sGen, sBody := genOf(t, secondary.URL())
	if pGen != gen || sGen != gen {
		t.Fatalf("owners did not converge: update says gen %s, primary %s, secondary %s",
			gen, pGen, sGen)
	}
	if string(pBody) != string(sBody) {
		t.Fatalf("owners answer differently after convergence:\nprimary:   %s\nsecondary: %s", pBody, sBody)
	}
}

func TestClusterAllOwnersDown(t *testing.T) {
	g := sage.GenerateRMAT(7, 8, 0x31)
	c := clustertest.New(t, clustertest.Options{
		Replicas:    3,
		Replication: 2,
		Datasets:    map[string]*sage.Graph{"g": g},
	})
	for _, r := range c.Owners("g") {
		r.Kill()
	}
	status, body, hdr := post(t, c.URL()+"/v1/run/g/cc", []byte(`{}`))
	if status != http.StatusBadGateway {
		t.Fatalf("read with every owner down: %d: %s", status, body)
	}
	var e errorBody
	if err := json.Unmarshal(body, &e); err != nil || e.Reason != "no_replica" {
		t.Fatalf("error contract: %s (err %v)", body, err)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("no_replica rejection carries no Retry-After")
	}

	// With every replica down and a probe sweep done, the router itself
	// reports not-ready — a load balancer should stop sending to it.
	for _, r := range c.Replicas {
		r.Kill()
	}
	c.ProbeAll()
	resp, err := http.Get(c.URL() + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("router /readyz with all replicas down: %d, want 503", resp.StatusCode)
	}

	// Recovery: restart one replica, probe, and readiness returns.
	c.Replicas[0].Restart(t)
	c.ProbeAll()
	resp, err = http.Get(c.URL() + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router /readyz after one replica rejoined: %d, want 200", resp.StatusCode)
	}
}

// TestClusterMetricsAfterFaults sanity-checks the router's fault
// counters end to end.
func TestClusterMetricsAfterFaults(t *testing.T) {
	g := sage.GenerateRMAT(7, 8, 0x11)
	c := clustertest.New(t, clustertest.Options{
		Replicas:    2,
		Replication: 2,
		Datasets:    map[string]*sage.Graph{"g": g},
	})
	owners := c.Owners("g")
	owners[0].Kill()
	post(t, c.URL()+"/v1/run/g/cc", []byte(`{}`))       // failover read
	post(t, c.URL()+"/v1/update/g", updateOps(t, 1, 2)) // failed write

	resp, err := http.Get(c.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		ReadFailovers     int64 `json:"read_failovers"`
		WriteFanoutErrors int64 `json:"write_fanout_errors"`
		Peers             []struct {
			Name    string `json:"name"`
			Healthy bool   `json:"healthy"`
		} `json:"peers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.ReadFailovers < 1 {
		t.Errorf("read_failovers = %d, want >= 1", m.ReadFailovers)
	}
	if m.WriteFanoutErrors < 1 {
		t.Errorf("write_fanout_errors = %d, want >= 1", m.WriteFanoutErrors)
	}
	sawDown := false
	for _, p := range m.Peers {
		if p.Name == owners[0].Name && !p.Healthy {
			sawDown = true
		}
	}
	if !sawDown {
		t.Errorf("metrics do not report %s unhealthy: %+v", owners[0].Name, m.Peers)
	}
}
