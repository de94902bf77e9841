// Package clustertest is the in-process cluster fixture behind the
// cluster test suites: N replica server.Servers, each with its own data
// directory (private dataset files and WAL segments, the per-replica
// arena the §5.2 placement argument wants), all fronted by one
// cluster.Router — every tier wrapped in an httptest.Server so the full
// HTTP proxy path runs with no processes to spawn. The differential,
// fault, and endpoint suites all share this fixture.
//
// Fault injection is first-class: Kill makes a replica's listener abort
// every connection mid-request (the client sees a transport error, as it
// would from a SIGKILLed process — the handler panics with
// http.ErrAbortHandler), while the replica's files stay on disk exactly
// as the crash left them; Restart builds a fresh server.Server over
// those files and replays its WAL, the in-process equivalent of
// restarting the process.
package clustertest

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"sage"
	"sage/internal/cluster"
	"sage/internal/server"
)

// Options configures New. The zero value builds 3 replicas, replication
// 2, durable WALs, and a router with passive health detection only.
type Options struct {
	// Replicas is the replica count (0: 3).
	Replicas int
	// Replication is how many replicas own each dataset (0: 2).
	Replication int
	// Datasets maps dataset names to the graphs every replica serves;
	// each replica (and each Direct server) persists its own copy.
	Datasets map[string]*sage.Graph
	// Copy opens datasets heap-copied instead of memory-mapped.
	Copy bool
	// NoWAL disables per-replica durability (the default is a WAL that
	// fsyncs every acknowledged batch, so a Kill loses nothing
	// acknowledged).
	NoWAL bool
	// RetryBackoff is the router's pause before each read failover (0:
	// 10ms — short, so fault tests spend no real time waiting).
	RetryBackoff time.Duration
	// ProbeInterval enables background health probing (0: disabled —
	// passive detection keeps tests deterministic; fault tests that want
	// a probe call Cluster.ProbeAll themselves).
	ProbeInterval time.Duration
}

// Replica is one replica server and its private data directory.
type Replica struct {
	// Name is the replica's ring identity ("r0", "r1", ...).
	Name string
	// Dir holds this replica's dataset files and WAL segments.
	Dir string

	paths map[string]string // dataset name -> file path in Dir
	cfg   server.Config
	srv   atomic.Pointer[server.Server]
	down  atomic.Bool
	hs    *httptest.Server
}

// ServeHTTP aborts every connection while the replica is killed and
// delegates to the current server.Server otherwise.
func (r *Replica) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if r.down.Load() {
		panic(http.ErrAbortHandler)
	}
	r.srv.Load().ServeHTTP(w, req)
}

// URL is the replica's base URL.
func (r *Replica) URL() string { return r.hs.URL }

// Server is the replica's current server.Server (swapped by Restart).
func (r *Replica) Server() *server.Server { return r.srv.Load() }

// Path returns the replica-local file backing dataset name.
func (r *Replica) Path(dataset string) string { return r.paths[dataset] }

// Kill simulates a crash: from now every connection to this replica
// aborts mid-request. The crashed server is abandoned un-closed — its
// disk state is whatever the WAL made durable.
func (r *Replica) Kill() { r.down.Store(true) }

// Restart simulates the crashed process coming back: a fresh
// server.Server over the same files, WAL replayed, then the listener
// accepts again. It reports how many batches the replay recovered.
func (r *Replica) Restart(t testing.TB) int {
	t.Helper()
	if old := r.srv.Load(); old != nil {
		// The in-process stand-in for process death: release the crashed
		// server's file handles so the restarted one owns the WAL alone.
		// Every acknowledged batch is already fsynced, so the
		// flush-on-close writes nothing new and the disk state is still
		// the crash state.
		_ = old.Close()
	}
	s := newServer(t, r.cfg, r.paths)
	replayed, _ := s.Recover()
	r.srv.Store(s)
	r.down.Store(false)
	return replayed
}

// Cluster is the assembled fixture: replicas, router, and both wrapped
// in running httptest servers.
type Cluster struct {
	// Replicas in ring-name order ("r0", "r1", ...).
	Replicas []*Replica
	// Router is the in-process router (for Owners and metrics).
	Router *cluster.Router
	// Front is the router's HTTP listener; Front.URL is the cluster's
	// client-facing base URL.
	Front *httptest.Server

	opts Options
}

// newServer builds one replica (or direct) server over the given
// dataset files.
func newServer(t testing.TB, cfg server.Config, paths map[string]string) *server.Server {
	t.Helper()
	s := server.New(cfg)
	for name, path := range paths {
		if err := s.AddDataset(name, path); err != nil {
			t.Fatalf("clustertest: add dataset %q: %v", name, err)
		}
	}
	return s
}

// persist writes each dataset graph into dir, returning name -> path.
func persist(t testing.TB, dir string, datasets map[string]*sage.Graph) map[string]string {
	t.Helper()
	paths := make(map[string]string, len(datasets))
	for name, g := range datasets {
		p := filepath.Join(dir, name+".sg")
		if err := sage.Create(p, g); err != nil {
			t.Fatalf("clustertest: create %q: %v", name, err)
		}
		paths[name] = p
	}
	return paths
}

func (o *Options) serverConfig() server.Config {
	cfg := server.Config{CopyDatasets: o.Copy}
	if !o.NoWAL {
		cfg.Durability = server.Durability{Enabled: true}
	}
	return cfg
}

// New assembles the cluster and registers cleanup on t.
func New(t testing.TB, opts Options) *Cluster {
	t.Helper()
	if opts.Replicas <= 0 {
		opts.Replicas = 3
	}
	if opts.Replication <= 0 {
		opts.Replication = 2
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 10 * time.Millisecond
	}
	c := &Cluster{opts: opts}
	peers := make([]cluster.Peer, opts.Replicas)
	for i := 0; i < opts.Replicas; i++ {
		r := &Replica{
			Name: "r" + strconv.Itoa(i),
			Dir:  t.TempDir(),
			cfg:  opts.serverConfig(),
		}
		r.paths = persist(t, r.Dir, opts.Datasets)
		s := newServer(t, r.cfg, r.paths)
		if _, degraded := s.Recover(); len(degraded) != 0 {
			t.Fatalf("clustertest: replica %s degraded at startup: %v", r.Name, degraded)
		}
		r.srv.Store(s)
		r.hs = httptest.NewServer(r)
		t.Cleanup(func() {
			r.hs.Close()
			if !r.down.Load() {
				_ = r.srv.Load().Close()
			}
		})
		peers[i] = cluster.Peer{Name: r.Name, URL: r.hs.URL}
		c.Replicas = append(c.Replicas, r)
	}

	probe := opts.ProbeInterval
	if probe == 0 {
		probe = -1 // fixture default: passive only
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Peers:         peers,
		Replication:   opts.Replication,
		ProbeInterval: probe,
		RetryBackoff:  opts.RetryBackoff,
	})
	if err != nil {
		t.Fatalf("clustertest: router: %v", err)
	}
	rt.Start()
	c.Router = rt
	c.Front = httptest.NewServer(rt)
	t.Cleanup(func() {
		c.Front.Close()
		rt.Close()
	})
	return c
}

// URL is the router's client-facing base URL.
func (c *Cluster) URL() string { return c.Front.URL }

// ProbeAll runs one synchronous health sweep over every replica.
func (c *Cluster) ProbeAll() { c.Router.ProbeNow() }

// Replica returns the named replica.
func (c *Cluster) Replica(name string) *Replica {
	for _, r := range c.Replicas {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// Owners is dataset's replica preference list under the fixture's ring
// (primary first).
func (c *Cluster) Owners(dataset string) []*Replica {
	names := c.Router.Owners(dataset)
	out := make([]*Replica, len(names))
	for i, n := range names {
		out[i] = c.Replica(n)
	}
	return out
}

// Direct builds a fresh single-process server over its own copies of
// the fixture's datasets — the reference the differential suite
// compares routed responses against. Same server configuration, no
// router in the path.
func (c *Cluster) Direct(t testing.TB) *httptest.Server {
	t.Helper()
	paths := persist(t, t.TempDir(), c.opts.Datasets)
	s := newServer(t, c.opts.serverConfig(), paths)
	if _, degraded := s.Recover(); len(degraded) != 0 {
		t.Fatalf("clustertest: direct server degraded at startup: %v", degraded)
	}
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		hs.Close()
		_ = s.Close()
	})
	return hs
}
