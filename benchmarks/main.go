// Command benchmarks is the repository's end-to-end and per-layer
// benchmark. It drives the system only through public entry points —
// sage.Open/Create/Engine.RunAlgorithm/Snapshot.ApplyBatch,
// server.New(...).ServeHTTP behind a real http.Server on 127.0.0.1:0,
// cluster.NewRouter in front of two such servers — checks every answer,
// and prints every metric by name with its unit. See README.md.
//
//	benchmarks -workload serve_hit -seed 7 -seconds 12 -trace 0   one run (the BENCHMARK.json contract)
//	benchmarks [-trace 1] [-runs 3]                               every workload, results file written
//	benchmarks -compare old.json new.json                         regression table, non-zero on WORSE
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run, or all")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 35, "length of the measured phase (BENCHMARK.json's run_seconds)")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics (with -workload all: in addition to the untraced pass)")
	flag.BoolVar(&cfg.smoke, "smoke", false, "toy graphs (what `go test` runs)")
	flag.StringVar(&cfg.dataRoot, "dir", filepath.Join(".bench_build", "data"), "directory that holds each run's private data directory")
	flag.StringVar(&cfg.report, "report", "", "also write this run's detailed report as JSON to this file")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "span file of a traced run (default <dir>/../trace/<workload>.json)")
	runs := flag.Int("runs", 1, "with -workload all: runs per workload; run r uses seed+r")
	label := flag.String("label", "", "with -workload all: names benchmarks/results/<label>.json (default: the git commit)")
	compare := flag.Bool("compare", false, "compare two results files: -compare old.json new.json")
	flag.Parse()
	cfg.trace = *trace != 0

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two results files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case cfg.workload == "all":
		if err := runAll(cfg, *runs, *label); err != nil {
			fatal(err)
		}
	default:
		if cfg.trace && cfg.traceOut == "" {
			cfg.traceOut = filepath.Join(filepath.Dir(cfg.dataRoot), "trace", cfg.workload+".json")
		}
		rep, err := run(cfg)
		if err != nil {
			fatal(err)
		}
		rep.print(os.Stdout)
		if cfg.report != "" {
			if err := writeJSON(cfg.report, rep); err != nil {
				fatal(err)
			}
		}
		// The contract's result object is the last line of standard output.
		line, err := json.Marshal(rep.Result)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmarks:", err)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
