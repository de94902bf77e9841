// Command sage-run executes one Sage algorithm on a stored graph under a
// chosen memory configuration and reports the result summary, wall-clock
// time, and the run's simulated PSAM statistics.
//
// The algorithm surface comes entirely from the engine's registry
// (sage.Algorithms): -list enumerates it, -algo selects from it, and an
// interrupt (Ctrl-C) cancels the run mid-algorithm through the engine's
// context support.
//
// Graphs are opened through the sage dataset API: the storage format is
// sniffed from the file (override with -format; -formats lists the
// registry), and binary containers are memory-mapped so the adjacency
// arrays are consumed in place from the file — pass -copy to load into
// private heap memory instead.
//
// Usage:
//
//	sage-run -list
//	sage-run -formats
//	sage-run -graph web.sg -algo bfs -src 0
//	sage-run -graph web.sg -algo kcore -mode memorymode -copy
//	sage-run -graph social.adj -algo pagerank -maxiters 50
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"sage"
)

// listAlgorithms prints the registry as an aligned table.
func listAlgorithms(w *os.File) {
	fmt.Fprintln(w, "registered algorithms:")
	for _, a := range sage.Algorithms() {
		params := ""
		for _, p := range a.Params {
			params += fmt.Sprintf(" -%s=%v", p.Name, p.Default)
		}
		tag := ""
		if a.Weighted {
			tag = " [weighted]"
		}
		if a.SetCover {
			tag = " [bipartite; requires -numsets]"
		}
		fmt.Fprintf(w, "  %-14s %s%s\n", a.Name, a.Doc, tag)
		if params != "" {
			fmt.Fprintf(w, "  %-14s   params:%s\n", "", params)
		}
	}
}

func main() {
	path := flag.String("graph", "", "graph path (any registered format; see -formats)")
	algo := flag.String("algo", "bfs", "algorithm name from the registry (see -list)")
	list := flag.Bool("list", false, "list the algorithm registry and exit")
	listFormats := flag.Bool("formats", false, "list the storage format registry and exit")
	formatName := flag.String("format", "", "override storage-format sniffing (see -formats)")
	copyGraph := flag.Bool("copy", false, "load into private heap memory instead of memory-mapping")
	modeName := flag.String("mode", "appdirect", "dram|appdirect|memorymode|nvramall")
	strategyName := flag.String("strategy", "chunked", "chunked|blocked|sparse|auto")
	compressBS := flag.Int("compress", 0, "re-compress the graph in memory with this block size (0 = keep stored representation)")

	src := flag.Uint("src", 0, "source vertex for rooted algorithms")
	k := flag.Int("k", 0, "k parameter (spanner stretch, clique size; 0 = algorithm default)")
	eps := flag.Float64("eps", 0, "convergence / approximation parameter (0 = algorithm default)")
	maxIters := flag.Int("maxiters", 0, "iteration cap (0 = algorithm default)")
	beta := flag.Float64("beta", 0, "LDD decomposition parameter (0 = default 0.2)")
	damping := flag.Float64("damping", 0, "PageRank damping factor (0 = default 0.85)")
	numSets := flag.Uint("numsets", 0, "set count for the bipartite set-cover instance")
	maxSize := flag.Int("maxsize", 0, "local-cluster sweep-cut size cap (0 = unbounded)")
	flag.Parse()

	if *list {
		listAlgorithms(os.Stdout)
		return
	}
	if *listFormats {
		fmt.Println("registered storage formats:")
		for _, line := range sage.FormatDescriptions() {
			fmt.Println(" ", line)
		}
		return
	}
	if *path == "" {
		fmt.Fprintln(os.Stderr, "missing -graph")
		flag.Usage()
		os.Exit(2)
	}
	var openOpts []sage.OpenOption
	if *formatName != "" {
		openOpts = append(openOpts, sage.WithFormat(*formatName))
	}
	if *copyGraph {
		openOpts = append(openOpts, sage.WithCopy())
	}
	g, err := sage.Open(*path, openOpts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "open:", err)
		os.Exit(1)
	}
	defer g.Close()
	if *compressBS > 0 {
		g = g.Compress(*compressBS)
	}

	mode, err := sage.ParseMode(*modeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	strategy, err := sage.ParseStrategy(*strategyName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	known := false
	for _, name := range sage.AlgorithmNames() {
		if name == *algo {
			known = true
			break
		}
	}
	if !known {
		fmt.Fprintf(os.Stderr, "unknown algorithm %q\n\n", *algo)
		listAlgorithms(os.Stderr)
		os.Exit(2)
	}

	// Validate before the lossy uint32 conversions below: an oversized
	// -src must exit 2, not wrap around and run from the wrong vertex.
	if *src >= uint(g.NumVertices()) {
		fmt.Fprintf(os.Stderr, "src %d out of range: graph has %d vertices\n", *src, g.NumVertices())
		os.Exit(2)
	}
	if *numSets > uint(g.NumVertices()) {
		fmt.Fprintf(os.Stderr, "numsets %d out of range: graph has %d vertices\n", *numSets, g.NumVertices())
		os.Exit(2)
	}

	opts := []sage.Option{sage.WithMode(mode), sage.WithStrategy(strategy)}
	if mode == sage.MemoryMode {
		opts = append(opts, sage.WithCache(g.SizeWords()/8))
	}
	e := sage.NewEngine(opts...)

	// Ctrl-C cancels the run at the next frontier/iteration boundary.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	args := sage.AlgoArgs{
		Src: uint32(*src), K: *k, Eps: *eps, MaxIters: *maxIters,
		Beta: *beta, Damping: *damping, NumSets: uint32(*numSets), MaxSize: *maxSize,
	}
	start := time.Now()
	res, err := e.RunAlgorithm(ctx, *algo, g, args)
	elapsed := time.Since(start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "run:", err)
		if ctx.Err() != nil {
			os.Exit(130) // interrupted
		}
		os.Exit(2)
	}

	storage := "heap copy"
	if g.Mapped() {
		storage = "mmap (zero-copy)"
	}
	fmt.Printf("%s on n=%d m=%d [%s, %s, %s]\n",
		*algo, g.NumVertices(), g.NumEdges(), *modeName, *strategyName, storage)
	fmt.Println(" ", res.Summary)
	fmt.Println("  time:", elapsed.Round(time.Microsecond))
	fmt.Println("  run stats:", res.Stats)
}
