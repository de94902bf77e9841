package cluster

// The router front-end. One process speaks the whole sage-serve HTTP API
// while the data lives sharded across replicas: the router hashes the
// {dataset} path segment on the ring, proxies the request to an owning
// replica, and relays the response verbatim — bodies byte-for-byte,
// X-Sage-* headers included — so a client cannot tell a routed answer
// from a direct one (the property the cluster differential suite pins).
//
// Reads (/v1/run) retry around failure: a transport error marks the
// replica down and the request moves, after the retry backoff, to the
// next owner in the dataset's preference list, so a dead replica costs
// reads one failover, not an outage, as long as any owner is up. A down
// owner is tried after every healthy one and rejoins on its next
// successful contact or probe.
// Writes (/v1/update) never failover: the batch goes to the primary
// owner, then fans out to the remaining owners with the primary's
// resulting generation attached (X-Sage-Sync-Generation), which each
// secondary adopts as a floor — after a fan-out every owner reports the
// same generation, so the replicas' generation-keyed result caches stay
// coherent without invalidation traffic. The floor is enough because a
// replica's generation moves only with its dataset's state (updates and
// compactions): evicting and reopening a mapping leaves it alone, so no
// owner runs ahead of the others. A fan-out that cannot reach
// every owner answers 502 with the documented machine-readable reason;
// update batches are idempotent (re-inserting a present edge and
// deleting an absent one are no-ops), so the client retries the same
// batch once the replica is back and the owners converge.
//
// Admission stays where the capacity is: each replica enforces its own
// three-gate 429 contract (concurrency, DRAM words, predicted cost), and
// the router relays those 429s — Retry-After and all — untouched. So
// does caching: the router keeps no per-dataset state (only the ring and
// peer health), and a repeat read is the owning replica's cache hit,
// relayed like any other answer.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"sage/internal/server"
)

// probeTimeout bounds one background /readyz probe.
const probeTimeout = 2 * time.Second

// DefaultReplication is how many replicas own each dataset unless
// RouterConfig.Replication says otherwise. It is the paper's §5.2
// placement scaled out: one graph copy per socket of its two-socket
// machine ran 1.6× faster than one shared copy, because every socket's
// NVRAM traffic stayed local. Here "socket" becomes "replica process",
// and each owner serves its copy from its own local arena.
const DefaultReplication = 2

// RouterConfig configures NewRouter.
type RouterConfig struct {
	// Peers are the replicas behind this router. Required. The ring is
	// built over their names alone, so every router given the same peers
	// agrees on placement.
	Peers []Peer
	// Replication is how many replicas own each dataset (reads fail over
	// across them; writes fan out to all of them). <= 0 selects
	// DefaultReplication; either is clamped to the peer count.
	Replication int
	// ProbeInterval is the background health-probe period (0: default 2s;
	// < 0: disabled, passive failure detection only).
	ProbeInterval time.Duration
	// RetryBackoff is the pause before each read failover attempt, and
	// the base of the Retry-After on the router's own 502s (0: default
	// 100ms).
	RetryBackoff time.Duration
}

// Router is the cluster front-end HTTP handler. Create with NewRouter,
// optionally Start background health probing, and Close when done.
type Router struct {
	ring        *Ring
	peers       *membership
	client      *http.Client
	replication int
	backoff     time.Duration
	probeEvery  time.Duration
	mux         *http.ServeMux
	started     time.Time
	draining    atomic.Bool

	runsProxied       atomic.Int64
	updatesProxied    atomic.Int64
	listingsProxied   atomic.Int64
	readFailovers     atomic.Int64
	writeFanoutErrors atomic.Int64
	noReplicaErrors   atomic.Int64
}

// NewRouter builds a router over the configured peers. The ring is fixed
// at construction: membership changes are a restart (placement must be
// agreed on by every router, so it follows configuration, not health).
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one peer")
	}
	names := make([]string, len(cfg.Peers))
	for i, p := range cfg.Peers {
		names[i] = p.Name
	}
	ring, err := NewRing(DefaultVNodes, names...)
	if err != nil {
		return nil, err
	}
	// Proxied requests carry no overall timeout: runs may be long, and
	// cancellation rides the request context.
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: runtime.GOMAXPROCS(0) * 4,
	}}
	backoff := cfg.RetryBackoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	probeClient := &http.Client{Timeout: probeTimeout, Transport: client.Transport}
	peers, err := newMembership(cfg.Peers, probeClient)
	if err != nil {
		return nil, err
	}
	replication := cfg.Replication
	if replication <= 0 {
		replication = DefaultReplication
	}
	if replication > len(cfg.Peers) {
		replication = len(cfg.Peers)
	}
	probeEvery := cfg.ProbeInterval
	if probeEvery == 0 {
		probeEvery = 2 * time.Second
	}
	rt := &Router{
		ring:        ring,
		peers:       peers,
		client:      client,
		replication: replication,
		backoff:     backoff,
		probeEvery:  probeEvery,
		mux:         http.NewServeMux(),
		started:     time.Now(),
	}
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /readyz", rt.handleReadyz)
	rt.mux.HandleFunc("GET /v1/cluster", rt.handleCluster)
	rt.mux.HandleFunc("GET /v1/datasets", rt.handleDatasets)
	rt.mux.HandleFunc("GET /v1/algorithms", rt.handleAlgorithms)
	rt.mux.HandleFunc("POST /v1/run/{dataset}/{algo}", rt.handleRun)
	rt.mux.HandleFunc("POST /v1/update/{dataset}", rt.handleUpdate)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	return rt, nil
}

// Start launches background health probing. It is a no-op when probing
// is disabled, when it has already been called, and after Close.
func (rt *Router) Start() { rt.peers.start(rt.probeEvery) }

// ProbeNow synchronously probes every peer's /readyz once — the same
// sweep the background prober runs. Tests (and operators' init scripts)
// use it to settle health state deterministically.
func (rt *Router) ProbeNow() { rt.peers.probeAll() }

// BeginDrain flips /readyz to 503 so load balancers stop routing to this
// router while in-flight proxies finish.
func (rt *Router) BeginDrain() { rt.draining.Store(true) }

// Close stops background probing and waits for the prober to exit. It is
// safe without Start and may be called more than once.
func (rt *Router) Close() { rt.peers.close() }

// ServeHTTP dispatches to the router endpoints.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Owners returns dataset's replica preference list under this router's
// ring and replication factor (primary first).
func (rt *Router) Owners(dataset string) []string {
	return rt.ring.Owners(dataset, rt.replication)
}

// --------------------------------------------------------------------
// Proxy plumbing.
// --------------------------------------------------------------------

// hopByHop are the connection-scoped headers a proxy must not relay.
var hopByHop = map[string]bool{
	"Connection": true, "Keep-Alive": true, "Proxy-Authenticate": true,
	"Proxy-Authorization": true, "Te": true, "Trailer": true,
	"Transfer-Encoding": true, "Upgrade": true,
}

// RoutedToHeader names the replica that served a proxied request — the
// one response header the router adds; everything else is relayed
// verbatim.
const RoutedToHeader = "X-Sage-Routed-To"

// doPeer issues one proxied request to ps. body may be resent (it is a
// byte slice, not the original stream). extra headers are added after
// the base ones. A returned error is a transport failure (the peer is
// unreachable or cut the connection); HTTP-level errors come back as
// responses.
func (rt *Router) doPeer(ctx context.Context, ps *peerState, method, pathAndQuery string, body []byte, extra http.Header) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, ps.url+pathAndQuery, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, vs := range extra {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	return rt.client.Do(req)
}

// relay copies resp to w verbatim — status, headers (minus hop-by-hop),
// body — stamped with the serving replica's name.
func relay(w http.ResponseWriter, resp *http.Response, peer string) {
	defer resp.Body.Close()
	h := w.Header()
	for k, vs := range resp.Header {
		if hopByHop[k] {
			continue
		}
		h[k] = vs
	}
	h.Set(RoutedToHeader, peer)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// readOrder returns owners with every currently-healthy peer ahead of
// the down ones, preference order preserved within each class: the
// likely-up replica is tried first, but a down one is still tried last —
// that attempt is how a recovered replica rejoins between probes.
func (rt *Router) readOrder(owners []string) []*peerState {
	out := make([]*peerState, 0, len(owners))
	for _, name := range owners {
		if ps := rt.peers.peer(name); ps != nil && ps.healthy.Load() {
			out = append(out, ps)
		}
	}
	for _, name := range owners {
		if ps := rt.peers.peer(name); ps != nil && !ps.healthy.Load() {
			out = append(out, ps)
		}
	}
	return out
}

// badGateway writes a router-originated 502, counted in errs. Its
// Retry-After is the retry backoff rounded up to whole seconds (at least
// one): a hint to pace the retry, since a down replica is tried again on
// the next request for any dataset it owns.
func (rt *Router) badGateway(w http.ResponseWriter, errs *atomic.Int64, body map[string]any) {
	errs.Add(1)
	s := max(int((rt.backoff+time.Second-1)/time.Second), 1)
	w.Header().Set("Retry-After", strconv.Itoa(s))
	server.WriteJSON(w, http.StatusBadGateway, body)
}

// routed is a proxied POST as the router forwards it.
type routed struct {
	dataset string
	owners  []string // preference list, primary first
	body    []byte   // resendable to every owner
	path    string   // upstream path and query
}

// route is the prologue the run and update handlers share: it reads the
// body (at most maxBody bytes), resolves the dataset's owners and builds
// the upstream path. When it cannot, it answers the client itself and
// returns false.
func (rt *Router) route(w http.ResponseWriter, r *http.Request, maxBody int64) (routed, bool) {
	req := routed{dataset: r.PathValue("dataset"), path: r.URL.Path}
	var err error
	if req.body, err = io.ReadAll(http.MaxBytesReader(nil, r.Body, maxBody)); err != nil {
		server.WriteJSON(w, http.StatusBadRequest, map[string]string{"error": "reading body: " + err.Error()})
		return req, false
	}
	if req.owners = rt.Owners(req.dataset); len(req.owners) == 0 {
		rt.badGateway(w, &rt.noReplicaErrors,
			map[string]any{"error": "no replicas configured", "reason": "no_replica"})
		return req, false
	}
	if r.URL.RawQuery != "" {
		req.path += "?" + r.URL.RawQuery
	}
	return req, true
}

// --------------------------------------------------------------------
// Handlers.
// --------------------------------------------------------------------

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"role":     "router",
		"uptime_s": time.Since(rt.started).Seconds(),
	})
}

// handleReadyz reports routability: a router with no healthy replica
// cannot serve anything, and a draining router must stop receiving.
func (rt *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	switch {
	case rt.draining.Load():
		server.WriteJSON(w, http.StatusServiceUnavailable,
			map[string]any{"status": "draining", "reason": "draining"})
	case rt.peers.healthyCount() == 0:
		server.WriteJSON(w, http.StatusServiceUnavailable,
			map[string]any{"status": "no_replicas", "reason": "no_replicas"})
	default:
		server.WriteJSON(w, http.StatusOK, map[string]any{"status": "ready"})
	}
}

// handleCluster reports the routing topology; ?dataset=name adds that
// dataset's owner preference list.
func (rt *Router) handleCluster(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{
		"role":        "router",
		"vnodes":      rt.ring.vnodes,
		"replication": rt.replication,
		"members":     rt.ring.Members(),
		"peers":       rt.peers.info(),
	}
	if ds := r.URL.Query().Get("dataset"); ds != "" {
		resp["dataset"] = ds
		resp["owners"] = rt.Owners(ds)
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

// handleDatasets fans out to every reachable replica and merges the
// catalogs: each dataset is reported once, from the highest-ranked owner
// that listed it, annotated with which replica answered and the full
// owner list.
func (rt *Router) handleDatasets(w http.ResponseWriter, r *http.Request) {
	type listing struct {
		Datasets []map[string]any `json:"datasets"`
	}
	best := map[string]int{} // dataset -> rank of the replica its entry came from
	merged := map[string]map[string]any{}
	reached := 0
	for _, ps := range rt.readOrder(rt.ring.Members()) {
		resp, err := rt.doPeer(r.Context(), ps, http.MethodGet, "/v1/datasets", nil, nil)
		if err != nil {
			ps.markDown()
			continue
		}
		var l listing
		err = json.NewDecoder(resp.Body).Decode(&l)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		ps.markUp()
		reached++
		for _, entry := range l.Datasets {
			name, _ := entry["name"].(string)
			if name == "" {
				continue
			}
			owners := rt.Owners(name)
			rank := len(owners) + 1 // non-owners sort after every owner
			for i, o := range owners {
				if o == ps.name {
					rank = i
					break
				}
			}
			if prev, seen := best[name]; seen && prev <= rank {
				continue
			}
			entry["served_by"] = ps.name
			entry["replicas"] = owners
			best[name], merged[name] = rank, entry
		}
	}
	if reached == 0 {
		rt.badGateway(w, &rt.noReplicaErrors,
			map[string]any{"error": "no replica reachable", "reason": "no_replica"})
		return
	}
	rt.listingsProxied.Add(1)
	names := make([]string, 0, len(merged))
	for name := range merged {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]map[string]any, len(names))
	for i, name := range names {
		out[i] = merged[name]
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{"datasets": out})
}

// handleAlgorithms proxies the registry listing from any reachable
// replica (it is identical everywhere: one binary, one registry).
func (rt *Router) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	for _, ps := range rt.readOrder(rt.ring.Members()) {
		resp, err := rt.doPeer(r.Context(), ps, http.MethodGet, "/v1/algorithms", nil, nil)
		if err != nil {
			ps.markDown()
			continue
		}
		ps.markUp()
		rt.listingsProxied.Add(1)
		relay(w, resp, ps.name)
		return
	}
	rt.badGateway(w, &rt.noReplicaErrors,
		map[string]any{"error": "no replica reachable", "reason": "no_replica"})
}

// handleRun routes a read to the dataset's owners, failing over on
// transport errors. Replica responses — success or HTTP-level error
// (404, 400, 429 with its Retry-After, ...) — are relayed verbatim.
func (rt *Router) handleRun(w http.ResponseWriter, r *http.Request) {
	req, ok := rt.route(w, r, 1<<20)
	if !ok {
		return
	}
	for i, ps := range rt.readOrder(req.owners) {
		if i > 0 {
			rt.readFailovers.Add(1)
			select {
			case <-time.After(rt.backoff):
			case <-r.Context().Done():
				return
			}
		}
		resp, err := rt.doPeer(r.Context(), ps, http.MethodPost, req.path, req.body, nil)
		if err != nil {
			if r.Context().Err() != nil {
				return // the client is gone, not the replica
			}
			ps.markDown()
			continue
		}
		ps.markUp()
		rt.runsProxied.Add(1)
		relay(w, resp, ps.name)
		return
	}
	rt.badGateway(w, &rt.noReplicaErrors, map[string]any{
		"error":  fmt.Sprintf("no live replica for dataset %q (owners: %v)", req.dataset, req.owners),
		"reason": "no_replica",
	})
}

// handleUpdate routes a write to the dataset's primary owner, then fans
// it out to the remaining owners with the primary's generation attached,
// so every owner publishes the batch at the same generation. Writes
// never fail over: a transport failure answers 502 with a
// machine-readable reason (batches are idempotent — retry the same body
// once the replica is back and the owners converge).
func (rt *Router) handleUpdate(w http.ResponseWriter, r *http.Request) {
	req, ok := rt.route(w, r, 8<<20)
	if !ok {
		return
	}
	ds := req.dataset
	primary := rt.peers.peer(req.owners[0])
	resp, err := rt.doPeer(r.Context(), primary, http.MethodPost, req.path, req.body, nil)
	if err != nil {
		if r.Context().Err() != nil {
			return
		}
		primary.markDown()
		rt.badGateway(w, &rt.writeFanoutErrors, map[string]any{
			"error":   fmt.Sprintf("primary owner %q unreachable for dataset %q", primary.name, ds),
			"reason":  "replica_down",
			"replica": primary.name,
		})
		return
	}
	primary.markUp()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		// The primary rejected the batch (400/404/503 read_only/507/...):
		// nothing was applied anywhere; relay its verdict verbatim.
		rt.updatesProxied.Add(1)
		relay(w, resp, primary.name)
		return
	}
	primBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		rt.badGateway(w, &rt.writeFanoutErrors, map[string]any{
			"error":   fmt.Sprintf("reading primary response from %q: %v", primary.name, err),
			"reason":  "replica_down",
			"replica": primary.name,
		})
		return
	}
	gen, _ := strconv.ParseUint(resp.Header.Get(server.GenerationHeader), 10, 64)

	appliedTo := []string{primary.name}
	var sync http.Header
	if gen > 0 {
		sync = http.Header{server.SyncGenerationHeader: []string{strconv.FormatUint(gen, 10)}}
	}
	for _, name := range req.owners[1:] {
		sec := rt.peers.peer(name)
		sresp, err := rt.doPeer(r.Context(), sec, http.MethodPost, req.path, req.body, sync)
		if err != nil {
			if r.Context().Err() != nil {
				return
			}
			sec.markDown()
			rt.badGateway(w, &rt.writeFanoutErrors, map[string]any{
				"error": fmt.Sprintf("owner %q unreachable for dataset %q: batch applied to %v; retry the same batch once every owner is reachable (batches are idempotent)",
					name, ds, appliedTo),
				"reason":     "replica_down",
				"replica":    name,
				"applied_to": appliedTo,
			})
			return
		}
		sec.markUp()
		if sresp.StatusCode < 200 || sresp.StatusCode >= 300 {
			detail, _ := io.ReadAll(io.LimitReader(sresp.Body, 512))
			sresp.Body.Close()
			rt.badGateway(w, &rt.writeFanoutErrors, map[string]any{
				"error": fmt.Sprintf("owner %q rejected the fan-out for dataset %q (status %d): %s; batch applied to %v",
					name, ds, sresp.StatusCode, string(detail), appliedTo),
				"reason":     "fanout_failed",
				"replica":    name,
				"status":     sresp.StatusCode,
				"applied_to": appliedTo,
			})
			return
		}
		io.Copy(io.Discard, sresp.Body)
		sresp.Body.Close()
		appliedTo = append(appliedTo, name)
	}
	rt.updatesProxied.Add(1)

	// Every owner accepted: relay the primary's response verbatim.
	resp.Body = io.NopCloser(bytes.NewReader(primBody))
	relay(w, resp, primary.name)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"role":     "router",
		"uptime_s": time.Since(rt.started).Seconds(),
		"ring": map[string]any{
			"vnodes":      rt.ring.vnodes,
			"replication": rt.replication,
			"members":     len(rt.ring.nodes),
		},
		"proxied": map[string]int64{
			"runs":     rt.runsProxied.Load(),
			"updates":  rt.updatesProxied.Load(),
			"listings": rt.listingsProxied.Load(),
		},
		"read_failovers":      rt.readFailovers.Load(),
		"write_fanout_errors": rt.writeFanoutErrors.Load(),
		"no_replica_errors":   rt.noReplicaErrors.Load(),
		"peers":               rt.peers.info(),
	})
}
