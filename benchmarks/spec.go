package main

// The benchmark's declared surface: workloads, end-to-end metrics with
// their regression bounds, and per-layer metrics. BENCHMARK.json at the
// repository root declares exactly these (spec_test.go pins the two
// together), and every run prints exactly one of the two metric sets.

// metricSpec declares one metric. Better is "lower" or "higher"; Bound is
// the share of the parent's median by which an end-to-end metric may get
// worse before a change counts as a regression (per-layer metrics have
// none).
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadSpec names one workload and the reason it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// suite is the analytics suite the algo_* workloads run, in order, with
// each algorithm's default arguments.
var suite = []string{
	"bfs", "wbfs", "bellmanford", "bc", "ldd", "cc",
	"mis", "coloring", "kcore", "pagerank", "tc", "biconn",
}

// ungated names the suite algorithms whose work is not a stable function
// of the graph's size, so they are timed in the traced pass only and
// reported per layer, outside p50_ms, tail_ms and alloc_kb_per_op. biconn's
// work follows the depth of the spanning forest it builds: over RMAT-18
// graphs that differ only in their seed it allocated 1.03 to 1.65 GB and
// took 480 to 690 ms, while every other algorithm repeated within 2%.
var ungated = map[string]bool{"biconn": true}

// workloadSpecs are the workloads BENCHMARK.json declares: the ones whose
// timing on a shared two-CPU host follows the program closely enough for
// a 25% bound to mean something (README.md, Steadiness).
var workloadSpecs = []workloadSpec{
	{"algo_csr", "analytics suite via Engine.RunAlgorithm on the mmap'd CSR container: the flat traverse path and algos do all the work, server/wal/cluster none"},
	{"algo_delta", "same suite on a snapshot holding m/1000 inserted edges: same layer over delta merged iteration, the overlay-traversal gap"},
	{"serve_miss", "one server over a real socket, cache-missing reads (12 bfs, 2 wbfs, 1 bc, 1 pagerank per cycle): engine run, double marshal and body write dominate"},
}

// reportedOnly are workloads the program runs and the all-workloads mode
// reports, but BENCHMARK.json does not declare. The request paths that do
// little work per request (a cache hit, a routed hit, a one-op update)
// follow the host's load by 35-55%, more than any bound the contract
// allows; algo_byte64 is as steady as algo_csr and is left out because the
// driver's run budget holds three workloads at this run length.
var reportedOnly = []workloadSpec{
	{"algo_byte64", "same suite on the byte-64 compressed container: same traverse/algos layer over compress block decode, so a flat-path gain that costs the decode path shows"},
	{"serve_hit", "same server, 64 warmed keys, 3 slim to 1 full-value read: the engine does nothing, so decode, pin, predict, cache key, LRU get and the socket are the whole cost"},
	{"serve_update", "durable one-op and 1,000-op toggle batches through the WAL beside reads of the moving overlay: write path and delta reads share one layer"},
	{"cluster_route", "router over two replicas: 27 slim hits, 4 bfs misses, 1 fanned-out update per cycle: the router hop, owner selection and write fan-out"},
}

// everyWorkload lists the declared workloads, then the reported-only ones.
func everyWorkload() []workloadSpec {
	return append(append([]workloadSpec(nil), workloadSpecs...), reportedOnly...)
}

// The end-to-end metrics. Every workload reports every one of them, about
// its primary operation class (see README.md for the per-workload class).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"tail_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"alloc_kb_per_op", "KB", "lower", 0.10},
}

// perLayer is built once: fixed names plus the per-algorithm families.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	var out []metricSpec
	add := func(name, unit, better string) {
		out = append(out, metricSpec{Name: name, Unit: unit, Better: better})
	}
	for _, a := range suite {
		add("algos."+a+"_ms", "ms", "lower")
	}
	for _, a := range suite {
		add("psam.cost."+a, "count", "lower")
	}
	for _, a := range suite {
		add("costmodel.predict_ratio."+a, "ratio", "lower")
	}
	for _, s := range edgeMapVariants {
		add("traverse.edgemap_meps."+s.name, "Medges/s", "higher")
	}
	add("graph.iter_meps", "Medges/s", "higher")
	add("compress.decode_meps", "Medges/s", "higher")
	add("delta.iter_slowdown", "ratio", "lower")
	add("parallel.speedup_p2", "ratio", "higher")
	add("store.open_mmap_ms", "ms", "lower")
	add("store.open_copy_ms", "ms", "lower")
	add("store.create_ms", "ms", "lower")
	add("sage.compact_ms", "ms", "lower")

	add("server.decode_us", "us", "lower")
	add("costmodel.predict_us", "us", "lower")
	add("store.pin_us", "us", "lower")
	add("sage.run_ms", "ms", "lower")
	add("server.marshal_ms", "ms", "lower")
	add("server.body_kb", "KB", "lower")
	add("server.handler_miss_ms", "ms", "lower")
	add("server.handler_hit_us", "us", "lower")
	add("server.handler_self_us", "us", "lower")
	add("server.socket_us", "us", "lower")

	for _, ov := range []string{"empty", "2k"} {
		for _, sz := range []string{"1op", "1kop"} {
			add("delta.apply_us."+ov+"."+sz, "us", "lower")
		}
	}
	add("wal.append_us", "us", "lower")
	add("wal.commit_us", "us", "lower")
	add("wal.fsync_us", "us", "lower")
	add("wal.bytes_per_op", "B", "lower")
	add("wal.batches_per_sync", "ratio", "higher")
	add("server.update_handler_us", "us", "lower")
	add("server.update_self_us", "us", "lower")

	add("cluster.ring_lookup_ns", "ns", "lower")
	add("cluster.router_handler_us", "us", "lower")
	add("cluster.proxy_overhead_us", "us", "lower")
	add("cluster.fanout_overhead_us", "us", "lower")
	add("cluster.read_share_max", "ratio", "lower")
	add("cluster.read_failovers", "count", "lower")

	add("server.cache_hit_ratio", "ratio", "higher")
	add("server.rejected_total", "count", "lower")
	add("server.runs_failed", "count", "lower")

	add("socket.hit_p50_ms", "ms", "lower")
	add("socket.hit_p99_ms", "ms", "lower")
	add("socket.miss_p50_ms", "ms", "lower")
	add("socket.miss_p99_ms", "ms", "lower")
	add("socket.update_p50_ms", "ms", "lower")
	add("socket.update_p99_ms", "ms", "lower")
	add("socket.bulk_p50_ms", "ms", "lower")

	add("trace.ops_per_s", "1/s", "higher")
	add("trace.spans", "count", "lower")
	add("process.gc_pause_ms", "ms", "lower")
	add("process.spin_mops", "Mops/s", "higher")
	return out
}
