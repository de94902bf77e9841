package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestSmoke runs all seven workloads, untraced and traced, on toy graphs:
// the same code BENCHMARK.json measures, exercised by `go test ./...`.
// Every declared metric must appear exactly once with a finite value,
// every end-to-end metric must be positive, and nothing may fail.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, ws := range everyWorkload() {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: ws.Name, seed: 1, seconds: 0.4, trace: traced, smoke: true,
				dataRoot: filepath.Join(dir, "data"), traceOut: filepath.Join(dir, "trace", ws.Name+".json")}
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", ws.Name, traced, err)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			if len(rep.Result.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: %d metrics reported, %d declared", ws.Name, traced, len(rep.Result.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := rep.Result.Metrics[s.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", ws.Name, traced, s.Name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s traced=%v: metric %s = %v", ws.Name, traced, s.Name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", ws.Name, s.Name, m.Value)
				case m.Unit != s.Unit:
					t.Errorf("%s: metric %s has unit %q, declared %q", ws.Name, s.Name, m.Unit, s.Unit)
				}
			}
			if rep.Result.Failed != 0 || !rep.Result.Correct || rep.Result.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d, failed %d, correct %v: %v",
					ws.Name, traced, rep.Result.Attempted, rep.Result.Failed, rep.Result.Correct, rep.Notes)
			}
			if traced {
				data, err := os.ReadFile(cfg.traceOut)
				if err != nil {
					t.Fatalf("%s: span file: %v", ws.Name, err)
				}
				var tf traceFile
				if err := json.Unmarshal(data, &tf); err != nil || len(tf.Spans) == 0 {
					t.Errorf("%s: span file has %d spans (%v)", ws.Name, len(tf.Spans), err)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesSpec pins the repository's BENCHMARK.json to
// the workloads and metrics this package implements.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var declared struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &declared); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(declared.Workloads, workloadSpecs) {
		t.Errorf("workloads differ:\n json %v\n spec %v", declared.Workloads, workloadSpecs)
	}
	if !reflect.DeepEqual(declared.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n spec %v", declared.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(declared.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n spec %v", declared.PerLayer, perLayer)
	}
	hasSetup := false
	for _, m := range declared.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if len(declared.PerLayer) > 128 || declared.RunSeconds < 1 || declared.RunSeconds > 60 {
		t.Errorf("%d per-layer metrics, run_seconds %d", len(declared.PerLayer), declared.RunSeconds)
	}
}
