package main

// Everything a run feeds the system is made here from -seed: graphs,
// sources, eps values, toggle pools and request sequences. The program
// under test sees only container files and request bytes. Request
// sequences are pure functions of (seed, index): clients draw indices
// from one shared counter until the clock runs out, so the mix is the
// same in every run and the overlay size depends on how many requests
// were issued, never on which client was faster.

import (
	"fmt"
	"math/rand"
	"strconv"

	"sage"
	"sage/internal/refalgo"
)

// scale fixes graph and pool sizes. fullScale is what BENCHMARK.json
// measures; smokeScale is the same code on toy graphs for `go test`.
type scale struct {
	algoLogN  int // web18: the analytics graph
	serveLogN int // web16: the served graph
	feedLogN  int // feed12: the routed-write dataset
	preload   int // overlay edges inserted before serve_update measures
	hitKeys   int // warmed result-cache keys
	onePool   int // toggle pool behind one-op batches
	bulkOps   int // ops per bulk batch (and its toggle pool)
	setups    int // timed set-ups per run; setup_s is their median
}

var (
	fullScale  = scale{algoLogN: 18, serveLogN: 16, feedLogN: 12, preload: 2048, hitKeys: 64, onePool: 256, bulkOps: 1000, setups: 5}
	smokeScale = scale{algoLogN: 10, serveLogN: 10, feedLogN: 8, preload: 64, hitKeys: 16, onePool: 32, bulkOps: 100, setups: 2}
)

const avgDegree = 16

// graphInput is one generated graph plus what the request generators and
// the output checks need to know about it.
type graphInput struct {
	g *sage.Graph // weighted, heap-resident CSR; the containers are written from it
	// giant lists the vertices of the largest-degree vertex's component in
	// seed-shuffled order: every BFS source comes from it, so every BFS
	// does the same amount of work and must report the same reach.
	giant []uint32
}

// reachSummary is the summary line every BFS from a giant-component
// source must carry.
func (in *graphInput) reachSummary() string {
	return fmt.Sprintf("reached %d of %d vertices", len(in.giant), in.g.NumVertices())
}

func makeGraph(logN int, seed uint64) (*graphInput, error) {
	g, err := sage.GenerateRMAT(logN, avgDegree, seed).WithUniformWeights(seed ^ 0x9e3779b97f4a7c15)
	if err != nil {
		return nil, err
	}
	n := g.NumVertices()
	hub := uint32(0)
	for v := uint32(1); v < n; v++ {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
	}
	dist := refalgo.BFSDistances(g.RawCSR(), hub)
	in := &graphInput{g: g}
	for v, d := range dist {
		if d != ^uint32(0) {
			in.giant = append(in.giant, uint32(v))
		}
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(in.giant), func(i, j int) { in.giant[i], in.giant[j] = in.giant[j], in.giant[i] })
	return in, nil
}

// src returns the k-th BFS source, cycling through the shuffled giant
// component (65k sources outlast any run, so reads that must miss do).
func (in *graphInput) src(k int) uint32 { return in.giant[k%len(in.giant)] }

// nonEdges draws count distinct vertex pairs that are not edges of the
// base graph, as weighted inserts. Toggling them never touches a base
// edge, so the merged edge count is base + 2 arcs per present pair.
func (in *graphInput) nonEdges(rng *rand.Rand, count int) []sage.EdgeOp {
	csr := in.g.RawCSR()
	n := in.g.NumVertices()
	seen := map[[2]uint32]bool{}
	ops := make([]sage.EdgeOp, 0, count)
	for len(ops) < count {
		u, v := uint32(rng.Intn(int(n))), uint32(rng.Intn(int(n)))
		if u > v {
			u, v = v, u
		}
		if u == v || seen[[2]uint32{u, v}] || adjacent(csr.Neighbors(u), v) {
			continue
		}
		seen[[2]uint32{u, v}] = true
		ops = append(ops, sage.EdgeOp{U: u, V: v, W: int32(1 + rng.Intn(7))})
	}
	return ops
}

func adjacent(nghs []uint32, v uint32) bool {
	for _, u := range nghs {
		if u == v {
			return true
		}
	}
	return false
}

// --------------------------------------------------------------------
// Requests.
// --------------------------------------------------------------------

// class is a request's latency class. Each workload names one of them
// its primary class; p50_ms and tail_ms are about that one.
type class uint8

const (
	clsHit    class = iota // ?value=false read answered from the result cache
	clsMiss                // bfs read the engine must run
	clsUpdate              // one-op durable update batch
	clsBulk                // bulkOps-op durable update batch
	clsOther               // rides along for the mix: full-value hits, wbfs/bc/pagerank misses
	numClasses
)

var classNames = [numClasses]string{"hit", "miss", "update", "bulk", "other"}

// request is one HTTP exchange to issue. check names the output check the
// client applies to the reply (see client.go).
type request struct {
	class class
	path  string // URL path and query
	body  []byte
	src   uint32 // the run's source vertex, for the deep checks
	check expect
}

func runPath(dataset, algo string, slim bool) string {
	p := "/v1/run/" + dataset + "/" + algo
	if slim {
		p += "?value=false"
	}
	return p
}

func srcBody(src uint32) []byte { return []byte(`{"src":` + strconv.FormatUint(uint64(src), 10) + `}`) }

func bfsRequest(dataset string, src uint32, slim bool, cls class, check expect) request {
	return request{class: cls, path: runPath(dataset, "bfs", slim), body: srcBody(src), src: src, check: check}
}

// updateBody renders an update batch; del flips every op to a delete.
func updateBody(ops []sage.EdgeOp, del bool) []byte {
	b := []byte(`{"ops":[`)
	for i, op := range ops {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"u":`...)
		b = strconv.AppendUint(b, uint64(op.U), 10)
		b = append(b, `,"v":`...)
		b = strconv.AppendUint(b, uint64(op.V), 10)
		if del {
			b = append(b, `,"del":true`...)
		} else {
			b = append(b, `,"w":`...)
			b = strconv.AppendInt(b, int64(op.W), 10)
		}
		b = append(b, '}')
	}
	return append(b, `]}`...)
}

// togglePool is a fixed set of non-base edges that update batches flip:
// the k-th one-op batch inserts pool[k mod P] on even passes over the
// pool and deletes it on odd ones, so an edge is inserted only when
// absent and deleted only when present, and the number present is a
// function of k alone.
type togglePool []sage.EdgeOp

func (p togglePool) request(dataset string, k int) request {
	i, del := k%len(p), (k/len(p))%2 == 1
	return request{class: clsUpdate, path: "/v1/update/" + dataset, body: updateBody(p[i:i+1], del), check: expectUpdate}
}

// present is how many pool edges exist after k one-op batches.
func (p togglePool) present(k int) int {
	rem := k % len(p)
	if (k/len(p))%2 == 1 {
		return len(p) - rem
	}
	return rem
}

// missCycle is serve_miss's 16-request cycle.
const missCycle = 16

// missRequest is serve_miss request i: twelve bfs, two wbfs, one bc and
// one pagerank per cycle, every one with arguments no earlier request
// used, so each is a result-cache miss.
func missRequest(in *graphInput, i int) request {
	cycle, slot := i/missCycle, i%missCycle
	switch {
	case slot < 12:
		return bfsRequest("web", in.src(cycle*12+slot), false, clsMiss, expectBFS)
	case slot < 14:
		// The algorithm is part of the cache key, so wbfs and bc may reuse
		// sources bfs has used.
		src := in.src(cycle*2 + slot - 12)
		return request{class: clsOther, path: runPath("web", "wbfs", false), body: srcBody(src), src: src, check: expectWBFS}
	case slot == 14:
		return request{class: clsOther, path: runPath("web", "bc", false), body: srcBody(in.src(cycle)), check: expectRun}
	default:
		// A distinct eps changes the cache key; maxiters caps the work, so
		// every pagerank runs the same ten iterations.
		eps := 1e-9 * (1 + float64(cycle)*1e-6)
		body := []byte(`{"eps":` + strconv.FormatFloat(eps, 'g', -1, 64) + `,"maxiters":10}`)
		return request{class: clsOther, path: runPath("web", "pagerank", false), body: body, check: expectRun}
	}
}

// hitTable is the seed-drawn order in which warmed keys are read.
type hitTable []uint8

func makeHitTable(rng *rand.Rand, keys int) hitTable {
	t := make(hitTable, 4096)
	for i := range t {
		t[i] = uint8(rng.Intn(keys))
	}
	return t
}

// hitRequest is serve_hit request i: three slim reads to one full-value
// read, all of warmed keys.
func hitRequest(in *graphInput, t hitTable, i int) request {
	src := in.src(int(t[i%len(t)]))
	if i%4 == 3 {
		return bfsRequest("web", src, false, clsOther, expectHitFull)
	}
	return bfsRequest("web", src, true, clsHit, expectHitSlim)
}

// updateCycle is serve_update's writer cycle: nineteen one-op batches,
// then one bulk batch.
const updateCycle = 20

// writerRequest is serve_update writer batch j.
func writerRequest(one togglePool, bulk []sage.EdgeOp, j int) request {
	if j%updateCycle == updateCycle-1 {
		del := (j/updateCycle)%2 == 1
		return request{class: clsBulk, path: "/v1/update/web", body: updateBody(bulk, del), check: expectUpdate}
	}
	return one.request("web", j-j/updateCycle)
}

// writerPresent is how many toggled edges exist after the writer's first
// j batches: the overlay holds preload + this many inserted edges.
func writerPresent(one togglePool, bulkOps, j int) int {
	bulks := j / updateCycle
	present := one.present(j - bulks)
	if bulks%2 == 1 {
		present += bulkOps
	}
	return present
}

// routeCycle is cluster_route's 32-request cycle.
const routeCycle = 32

// routeRequest is cluster_route request i: 27 slim hits on web, 4 bfs
// misses on web, one one-op toggle on feed (a second dataset, so the
// fan-out never moves web's generation and its cached results stay).
func routeRequest(web *graphInput, t hitTable, feed togglePool, keys, i int) request {
	cycle, slot := i/routeCycle, i%routeCycle
	switch {
	case slot < 27:
		return bfsRequest("web", web.src(int(t[i%len(t)])), true, clsHit, expectHitSlim)
	case slot < 31:
		// Miss sources start after the warmed keys.
		return bfsRequest("web", web.src(keys+cycle*4+slot-27), false, clsMiss, expectBFS)
	default:
		return feed.request("feed", cycle)
	}
}

// routeUpdates is how many update batches the first n cluster_route
// requests contain.
func routeUpdates(n int) int { return n / routeCycle }
