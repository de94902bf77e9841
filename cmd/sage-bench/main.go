// Command sage-bench regenerates the paper's tables and figures over the
// synthetic workloads. The graph problems inside every experiment come
// from the same algorithm registry that backs sage-run and the public
// sage.Algorithms API (see internal/harness.Problems). docs/REPRODUCTION.md
// lists what each experiment computes and the test that asserts it.
//
// Usage:
//
//	sage-bench -exp fig1 -scale 16
//	sage-bench -exp all  -scale 14 -cache /tmp/sage-workloads
//	sage-bench -list
package main

import (
	"flag"
	"fmt"
	"os"

	"sage/internal/harness"
)

// experiments is the ordered experiment table.
var experiments = []struct {
	ID  string
	Doc string
	Run func(scale int) []*harness.Report
}{
	{"fig1", "NVRAM systems on a larger-than-DRAM graph", one(harness.RunFig1)},
	{"fig6", "self-relative speedup sweep", one(harness.RunFig6)},
	{"fig7", "DRAM vs NVRAM configurations in-memory", one(harness.RunFig7)},
	{"table1", "PSAM cost vs write asymmetry omega", one(harness.RunTable1)},
	{"table2", "graph inputs", one(harness.RunTable2)},
	{"table3", "Sage vs semi-external streaming", one(harness.RunTable3)},
	{"table4", "triangle counting vs filter block size", one(harness.RunTable4)},
	{"table5", "traversal strategy memory usage", one(harness.RunTable5)},
	{"appD1", "triangle counting vs vertex ordering", one(harness.RunAppD1)},
	{"all", "every experiment", harness.RunAll},
}

// one adapts a single-report runner.
func one(f func(int) *harness.Report) func(int) []*harness.Report {
	return func(scale int) []*harness.Report { return []*harness.Report{f(scale)} }
}

func listExperiments(w *os.File) {
	fmt.Fprintln(w, "experiments:")
	for _, e := range experiments {
		fmt.Fprintf(w, "  %-8s %s\n", e.ID, e.Doc)
	}
}

func main() {
	exp := flag.String("exp", "all", "experiment id (see -list)")
	scale := flag.Int("scale", 16, "log2 vertices of the R-MAT workload")
	list := flag.Bool("list", false, "list the experiments and exit")
	cache := flag.String("cache", "", "workload cache directory: persist the generated graphs through the dataset layer and reopen them memory-mapped on later runs")
	flag.Parse()

	if *list {
		listExperiments(os.Stdout)
		return
	}
	if *cache != "" {
		if err := harness.SetWorkloadCache(*cache); err != nil {
			fmt.Fprintln(os.Stderr, "cache:", err)
			os.Exit(1)
		}
		defer harness.CloseWorkloadCache()
	}
	for _, e := range experiments {
		if e.ID == *exp {
			for _, rep := range e.Run(*scale) {
				fmt.Println(rep.String())
			}
			return
		}
	}
	fmt.Fprintf(os.Stderr, "unknown experiment %q\n\n", *exp)
	listExperiments(os.Stderr)
	os.Exit(2)
}
