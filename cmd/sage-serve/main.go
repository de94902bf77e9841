// Command sage-serve runs the Sage graph-query service: a catalog of
// stored graphs kept resident (memory-mapped and shared across requests)
// with every registry algorithm exposed over HTTP.
//
// Datasets are named on the command line, either explicitly
// (-dataset name=path, repeatable) or as positional paths whose basename
// becomes the name. Files are opened lazily on first query, shared by all
// concurrent runs, and LRU-evicted under -dataset-budget.
//
// Endpoints:
//
//	GET  /healthz                      liveness + uptime
//	GET  /readyz                       routing readiness (503 during WAL replay and drain)
//	GET  /v1/datasets                  catalog listing (with live delta state)
//	GET  /v1/algorithms                registry with the JSON args schema
//	POST /v1/run/{dataset}/{algo}      run; JSON body = args, e.g. {"src": 3}
//	POST /v1/update/{dataset}          batch edge updates; {"ops":[{"u":1,"v":2}]}
//	GET  /metrics                      engine PSAM aggregate + service counters
//
// Admission control: -max-concurrent bounds runs in flight,
// -dram-budget bounds their summed predicted DRAM residency in simulated
// words, and -cost-budget bounds their summed predicted cost under the
// -cost-model hardware profile (optane|dram|reram|flash); excess load is
// shed with 429 + a Retry-After computed from live queue state. Both
// predictions are learned per dataset and algorithm from its past runs.
// Every run answers with X-Sage-Cost-* headers (predicted vs. actual cost
// under the model) and X-Sage-DRAM-Predicted. A client disconnect
// cancels its run at the next frontier/iteration boundary.
//
// Batch updates keep the stored file immutable: edge inserts/deletes live
// in a DRAM-resident delta overlay, served as immutable snapshots so
// in-flight runs finish on the version they started with. -delta-budget
// bounds each overlay's DRAM words (batches beyond it answer 507 until a
// {"compact": true} update folds the overlay into a rewritten file).
// -auto-compact-cost triggers that fold automatically once the overlay's
// predicted traversal overhead under the cost model crosses the given
// threshold (with hysteresis, so a hovering dataset does not flap).
//
// Durability: with -wal (the default), every accepted batch is appended
// to a per-dataset write-ahead log at <path>.wal — fsynced before the
// 200 is written; no flag weakens that — and replayed onto the stored
// file at startup, so updates survive a crash or kill. When the log is
// unwritable (disk full, I/O errors) the dataset degrades to read-only:
// reads keep serving, writes answer 503 {"reason": "read_only"}, and the
// dataset heals automatically when the disk does. A write that finds its
// dataset idle commits at once; the batches that queue up behind it are
// the next commit window — one fsync, one generation — so concurrent
// writers share fsyncs. A compaction folds the logged batches into the
// rewritten container and retires the log. A sealed <path>.wal.1 left by
// an earlier build that rotated the log is never replayed or deleted: the
// dataset serves reads and refuses writes, naming the file, until it is
// removed.
// See docs/HTTP_API.md for the full endpoint reference.
//
// Cluster mode: -role=router turns the process into the scale-out
// front-end instead of a replica. A router holds no datasets; it hashes
// the {dataset} path segment on a consistent-hash ring over the -peers
// replicas and proxies the same API — responses relayed verbatim, so
// clients cannot tell a routed answer from a direct one. Reads fail over
// around dead replicas; writes fan out to every owner with the primary's
// generation attached and answer 502 with a machine-readable reason when
// an owner is unreachable (update batches are idempotent: retry the same
// batch once the replica is back). See docs/ARCHITECTURE.md for the
// topology and docs/HTTP_API.md for the router's error contract.
//
// Usage:
//
//	sage-gen -kind rmat -logn 20 -deg 16 -out web.sg
//	sage-serve -listen :8080 -dataset web=web.sg
//	curl -X POST localhost:8080/v1/run/web/bfs -d '{"src": 0}'
//
// Cluster usage (two replicas, replication 2, one router):
//
//	sage-serve -listen :8081 -dataset web=r1/web.sg &
//	sage-serve -listen :8082 -dataset web=r2/web.sg &
//	sage-serve -role=router -listen :8080 -peers r1=http://localhost:8081,r2=http://localhost:8082
//	curl -X POST localhost:8080/v1/run/web/bfs -d '{"src": 0}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"sage"
	"sage/internal/cluster"
	"sage/internal/server"
)

// The two waits a client controls before (and between) requests. Without
// them a client that never finishes its request headers, or never sends
// another request, holds a connection and a goroutine for ever.
// ReadTimeout and WriteTimeout stay unset: a legitimate run can be long.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer is the server both roles listen with.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func main() {
	listen := flag.String("listen", ":8080", "listen address")
	role := flag.String("role", "replica", "replica (serve datasets) | router (proxy the API across -peers)")
	peersFlag := flag.String("peers", "", "router: comma-separated name=url replica endpoints")
	replication := flag.Int("replication", 0, "router: replicas owning each dataset (0 = 2, one copy per socket as in the paper's §5.2)")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "router: background /readyz probe period (negative disables)")
	retryBackoff := flag.Duration("retry-backoff", 100*time.Millisecond, "router: pause before each read failover; rounded up to seconds, the Retry-After of the router's 502s")
	modeName := flag.String("mode", "appdirect", "dram|appdirect|memorymode|nvramall")
	strategyName := flag.String("strategy", "chunked", "chunked|blocked|sparse|auto")
	costModelName := flag.String("cost-model", "optane", "hardware cost profile: "+strings.Join(sage.CostModelNames(), "|"))
	maxConcurrent := flag.Int("max-concurrent", 0, "max runs in flight (0 = GOMAXPROCS)")
	dramBudget := flag.Int64("dram-budget", 0, "aggregate DRAM budget for concurrent runs, in simulated words (0 = unlimited)")
	costBudget := flag.Int64("cost-budget", 0, "aggregate predicted-cost budget for concurrent runs, in model cost units (0 = unlimited)")
	autoCompactCost := flag.Int64("auto-compact-cost", 0, "predicted overlay traversal overhead, in model cost units, at which a dataset auto-compacts (0 = disabled)")
	datasetBudget := flag.Int64("dataset-budget", 0, "resident-dataset budget in simulated words; idle datasets beyond it are evicted (0 = unlimited)")
	deltaBudget := flag.Int64("delta-budget", 0, "per-dataset update-overlay DRAM budget in simulated words; over-budget batches answer 507 (0 = unlimited)")
	cacheEntries := flag.Int("cache-entries", 256, "result-cache capacity (negative disables)")
	cacheBytes := flag.Int64("cache-bytes", 0, "result-cache byte budget (0 = 64 MiB default)")
	queueWait := flag.Duration("queue-wait", 0, "how long a run may wait for a concurrency slot before 429")
	maxRun := flag.Duration("max-run", 0, "per-run execution limit (0 = unbounded)")
	copyDatasets := flag.Bool("copy", false, "load datasets into private heap memory instead of memory-mapping")
	preload := flag.Bool("preload", false, "open every dataset at startup instead of lazily")
	walEnabled := flag.Bool("wal", true, "write-ahead log update batches to <dataset>.wal and replay them at startup")
	drainGrace := flag.Duration("drain-grace", 0, "delay between /readyz reporting draining and connection shutdown, for load balancers to catch up")

	type namedPath struct{ name, path string }
	var datasets []namedPath
	flag.Func("dataset", "name=path of a stored graph (repeatable)", func(v string) error {
		name, path, ok := strings.Cut(v, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("want name=path, got %q", v)
		}
		datasets = append(datasets, namedPath{name, path})
		return nil
	})
	flag.Parse()

	// Positional paths: name = basename without extension.
	for _, path := range flag.Args() {
		base := filepath.Base(path)
		datasets = append(datasets, namedPath{strings.TrimSuffix(base, filepath.Ext(base)), path})
	}
	if *role == "router" {
		if len(datasets) != 0 {
			fmt.Fprintln(os.Stderr, "a router holds no datasets; point -peers at the replicas that do")
			os.Exit(2)
		}
		runRouter(*listen, *peersFlag, *replication,
			*probeInterval, *retryBackoff, *drainGrace)
		return
	}
	if *role != "replica" {
		fmt.Fprintf(os.Stderr, "unknown role %q (want replica or router)\n", *role)
		os.Exit(2)
	}
	if len(datasets) == 0 {
		fmt.Fprintln(os.Stderr, "no datasets: pass -dataset name=path or positional graph paths")
		flag.Usage()
		os.Exit(2)
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
	costModel, ok := sage.LookupCostModel(*costModelName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown cost model %q (have %s)\n", *costModelName, strings.Join(sage.CostModelNames(), ", "))
		os.Exit(2)
	}

	srv := server.New(server.Config{
		Engine:             sage.NewEngine(sage.WithMode(mode), sage.WithStrategy(strategy), sage.WithModel(costModel)),
		MaxConcurrent:      *maxConcurrent,
		DRAMBudgetWords:    *dramBudget,
		CostBudget:         *costBudget,
		AutoCompactCost:    *autoCompactCost,
		DatasetBudgetWords: *datasetBudget,
		DeltaBudgetWords:   *deltaBudget,
		ResultCacheEntries: *cacheEntries,
		ResultCacheBytes:   *cacheBytes,
		QueueWait:          *queueWait,
		MaxRunDuration:     *maxRun,
		CopyDatasets:       *copyDatasets,
		Durability:         server.Durability{Enabled: *walEnabled},
	})
	names := make([]string, 0, len(datasets))
	for _, d := range datasets {
		if err := srv.AddDataset(d.name, d.path); err != nil {
			fmt.Fprintln(os.Stderr, "dataset:", err)
			os.Exit(2)
		}
		names = append(names, d.name)
	}
	if *preload {
		// Warm the serving catalog itself: the datasets are resident
		// before the first query, and a corrupt file fails the start
		// instead of a request.
		for _, d := range datasets {
			if err := srv.Preload(d.name); err != nil {
				fmt.Fprintf(os.Stderr, "preload %s: %v\n", d.name, err)
				os.Exit(1)
			}
		}
	}

	// WAL replay runs after the listener is up: /readyz answers 503
	// ("starting") until Recover finishes, so load balancers hold traffic
	// while large logs replay, then flip to ready.
	serve(*listen, srv, *drainGrace, func(addr net.Addr) {
		if *walEnabled {
			replayed, degraded := srv.Recover()
			if replayed > 0 {
				log.Printf("sage-serve: replayed %d write-ahead batch(es)", replayed)
			}
			for _, name := range degraded {
				log.Printf("sage-serve: dataset %s is read-only (write-ahead log unavailable)", name)
			}
		}
		log.Printf("sage-serve: %d dataset(s) [%s], %d algorithms, mode %s, serving on %s",
			len(names), strings.Join(names, ", "), len(sage.AlgorithmNames()), *modeName, addr)
	})
	if err := srv.Close(); err != nil {
		log.Printf("close: %v", err)
	}
}

// runRouter is the -role=router main loop: build the ring over -peers,
// probe them once so the first requests route on fresh health state, and
// proxy until a signal drains the process.
func runRouter(listen, peersFlag string, replication int,
	probeInterval, retryBackoff, drainGrace time.Duration) {
	if peersFlag == "" {
		fmt.Fprintln(os.Stderr, "router role needs -peers name=url[,name=url...]")
		os.Exit(2)
	}
	peers, err := cluster.ParsePeers(peersFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Peers:         peers,
		Replication:   replication,
		ProbeInterval: probeInterval,
		RetryBackoff:  retryBackoff,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	rt.ProbeNow()
	rt.Start()
	names := make([]string, len(peers))
	for i, p := range peers {
		names[i] = p.Name
	}
	serve(listen, rt, drainGrace, func(addr net.Addr) {
		log.Printf("sage-serve: router over %d replica(s) [%s], serving on %s",
			len(peers), strings.Join(names, ", "), addr)
	})
	rt.Close()
}

// drainable is a handler that can stop advertising readiness: both the
// replica's server.Server and the router's cluster.Router are.
type drainable interface {
	http.Handler
	BeginDrain()
}

// serve is the one serving lifecycle of both roles. It binds addr, serves
// h, and calls up once the listener accepts, so "serving" in the log
// means reachable. On SIGINT or SIGTERM it drains: /readyz flips to 503
// at once so load balancers stop routing, connections close after
// drainGrace, and serve returns for the caller to release h.
func serve(addr string, h drainable, drainGrace time.Duration, up func(net.Addr)) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "listen:", err)
		os.Exit(1)
	}
	httpSrv := newHTTPServer(h)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	up(ln.Addr())

	select {
	case err := <-errCh:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}
	h.BeginDrain()
	log.Printf("sage-serve: draining")
	if drainGrace > 0 {
		time.Sleep(drainGrace)
	}
	log.Printf("sage-serve: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
}
