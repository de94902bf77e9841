package server_test

// HTTP-level durability behavior: the read-only degraded mode a client
// actually observes (503 + machine-readable reason, reads unaffected,
// automatic healing), the /readyz lifecycle load balancers route on, and
// the WAL section of /metrics.

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"sage/internal/server"
	"sage/internal/wal"
)

// newDurableChainServer serves a 10-vertex chain as "chain" with the WAL
// on fs (nil: an unarmed wal.FaultFS, whose fsyncs are simulated),
// returning the handler too (for Recover/BeginDrain).
func newDurableChainServer(t *testing.T, fs wal.FS) (*httptest.Server, *server.Server) {
	t.Helper()
	if fs == nil {
		fs = wal.NewFaultFS(nil)
	}
	dir := t.TempDir()
	s := server.New(server.Config{Durability: server.Durability{Enabled: true, FS: fs}})
	if err := s.AddDataset("chain", makeChain(t, dir, "chain", 10)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		_ = s.Close()
	})
	return ts, s
}

func TestReadOnlyDegradationOverHTTP(t *testing.T) {
	ffs := wal.NewFaultFS(nil)
	ts, srv := newDurableChainServer(t, ffs)
	srv.Recover()

	if code, body := postUpdate(t, ts.URL, "chain", `{"ops":[{"u":0,"v":5}]}`); code != http.StatusOK {
		t.Fatalf("healthy update: %d %v", code, body)
	}

	// The disk stops fsyncing: writes must be rejected — an unsynced ack
	// would be a durability lie — with the machine-readable reason.
	ffs.SetSyncError(true)
	code, body := postUpdate(t, ts.URL, "chain", `{"ops":[{"u":1,"v":6}]}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("update on broken WAL: %d %v", code, body)
	}
	if body["reason"] != "read_only" {
		t.Fatalf("degraded reason = %v", body["reason"])
	}

	// The catalog listing and metrics surface the degradation.
	_, list := getJSON(t, ts.URL+"/v1/datasets")
	ds := list["datasets"].([]any)[0].(map[string]any)
	if ds["read_only"] != true || ds["read_only_reason"] == "" {
		t.Fatalf("dataset listing: %v", ds)
	}
	_, m := getJSON(t, ts.URL+"/metrics")
	if metric(t, m, "wal", "read_only_datasets") != 1 {
		t.Fatalf("wal metrics: %v", m["wal"])
	}
	if metric(t, m, "wal", "rejected_read_only") < 1 {
		t.Fatalf("wal metrics: %v", m["wal"])
	}

	// Reads keep serving the last durable state.
	if code, run, _ := postRun(t, ts.URL, "chain", "cc", ``); code != http.StatusOK {
		t.Fatalf("read on read-only dataset: %d %v", code, run)
	}

	// The disk heals: the very next write probes the log and succeeds —
	// no restart, no operator action.
	ffs.SetSyncError(false)
	if code, body := postUpdate(t, ts.URL, "chain", `{"ops":[{"u":1,"v":6}]}`); code != http.StatusOK {
		t.Fatalf("update after heal: %d %v", code, body)
	}
	_, list = getJSON(t, ts.URL+"/v1/datasets")
	ds = list["datasets"].([]any)[0].(map[string]any)
	if ds["read_only"] == true {
		t.Fatalf("dataset still read-only after heal: %v", ds)
	}
}

func TestLeftoverSealedSegmentReadOnly(t *testing.T) {
	// A rotating build sealed acknowledged batches into <path>.wal.1. The
	// log refuses to open beside it, so the dataset must serve reads,
	// refuse writes, name the file, and leave it alone.
	dir := t.TempDir()
	path := makeChain(t, dir, "chain", 10)
	sealed := path + server.WALSuffix + ".1"
	sealedBytes := []byte("batches a rotating build acknowledged")
	if err := os.WriteFile(sealed, sealedBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Config{Durability: server.Durability{Enabled: true, FS: wal.NewFaultFS(nil)}})
	if err := s.AddDataset("chain", path); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		_ = s.Close()
	})
	if _, degraded := s.Recover(); len(degraded) != 1 {
		t.Fatalf("degraded after recovery: %v", degraded)
	}

	_, list := getJSON(t, ts.URL+"/v1/datasets")
	ds := list["datasets"].([]any)[0].(map[string]any)
	if reason, _ := ds["read_only_reason"].(string); ds["read_only"] != true || !strings.Contains(reason, sealed) {
		t.Fatalf("dataset listing: %v, want read-only naming %s", ds, sealed)
	}
	if code, run, _ := postRun(t, ts.URL, "chain", "cc", ``); code != http.StatusOK {
		t.Fatalf("read beside a sealed segment: %d %v", code, run)
	}
	code, body := postUpdate(t, ts.URL, "chain", `{"ops":[{"u":0,"v":5}]}`)
	if code != http.StatusServiceUnavailable || body["reason"] != "read_only" {
		t.Fatalf("update beside a sealed segment: %d %v", code, body)
	}
	if got, err := os.ReadFile(sealed); err != nil || !bytes.Equal(got, sealedBytes) {
		t.Fatalf("sealed segment touched: %q, %v", got, err)
	}

	// The operator removes the file: the next write heals the dataset.
	if err := os.Remove(sealed); err != nil {
		t.Fatal(err)
	}
	if code, body := postUpdate(t, ts.URL, "chain", `{"ops":[{"u":0,"v":5}]}`); code != http.StatusOK {
		t.Fatalf("update after removal: %d %v", code, body)
	}
	_, list = getJSON(t, ts.URL+"/v1/datasets")
	if ds = list["datasets"].([]any)[0].(map[string]any); ds["read_only"] == true {
		t.Fatalf("dataset still read-only after removal: %v", ds)
	}
}

func TestDiskFullDegradationOverHTTP(t *testing.T) {
	ffs := wal.NewFaultFS(nil)
	ts, srv := newDurableChainServer(t, ffs)
	srv.Recover()

	ffs.SetWriteLimit(0) // every write is now short: ENOSPC
	code, body := postUpdate(t, ts.URL, "chain", `{"ops":[{"u":0,"v":5}]}`)
	if code != http.StatusServiceUnavailable || body["reason"] != "read_only" {
		t.Fatalf("update on full disk: %d %v", code, body)
	}
	ffs.SetWriteLimit(-1) // space freed
	if code, body := postUpdate(t, ts.URL, "chain", `{"ops":[{"u":0,"v":5}]}`); code != http.StatusOK {
		t.Fatalf("update after space freed: %d %v", code, body)
	}
}

func TestReadyzLifecycle(t *testing.T) {
	ts, srv := newDurableChainServer(t, nil)

	// Durability is on and Recover has not run: alive but not ready.
	code, body := getJSON(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable || body["reason"] != "wal_replay" {
		t.Fatalf("readyz before recovery: %d %v", code, body)
	}
	if code, _ := getJSON(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatal("healthz not 200 during startup")
	}

	srv.Recover()
	if code, body := getJSON(t, ts.URL+"/readyz"); code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("readyz after recovery: %d %v", code, body)
	}

	// Draining: new routing stops, liveness and reads continue.
	srv.BeginDrain()
	code, body = getJSON(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable || body["reason"] != "draining" {
		t.Fatalf("readyz draining: %d %v", code, body)
	}
	if code, _ := getJSON(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatal("healthz not 200 while draining")
	}
	if code, run, _ := postRun(t, ts.URL, "chain", "cc", ``); code != http.StatusOK {
		t.Fatalf("read while draining: %d %v", code, run)
	}
}

func TestReadyzImmediateWithoutWAL(t *testing.T) {
	ts := newChainServer(t, server.Config{})
	if code, body := getJSON(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz with durability off: %d %v", code, body)
	}
}
