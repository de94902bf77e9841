package main

// The cluster_route workload: a cluster.Router (replication 2, its own
// result cache off, background probes off) in front of two replica
// servers, each with private copies of both datasets and their WALs.

import (
	"bytes"
	"math/rand"
	"net/http"
	"path/filepath"
	"regexp"

	"sage"
	"sage/internal/cluster"
)

// replicaNames fixes the cluster: with replication 2 both replicas own
// every dataset, so every update fans out and every read has a choice.
var replicaNames = []string{"r0", "r1"}

// routed is a cluster_route instance.
type routed struct {
	replicas map[string]*node
	router   *cluster.Router
	front    *front
	lanes    []*lane
}

func (c *routed) stop() {
	if c.front != nil {
		c.front.stop()
	}
	if c.router != nil {
		c.router.Close()
	}
	for _, n := range c.replicas {
		n.stop()
	}
}

// primary returns the replica that leads dataset's writes and, while it
// is healthy, serves all its reads.
func (c *routed) primary(dataset string) *node { return c.replicas[c.router.Owners(dataset)[0]] }

func startCluster(dir string, web, feed *graphInput) (*routed, error) {
	c := &routed{replicas: map[string]*node{}}
	var peers []cluster.Peer
	for _, name := range replicaNames {
		paths := map[string]string{
			"web":  filepath.Join(dir, name+"-web.sg"),
			"feed": filepath.Join(dir, name+"-feed.sg"),
		}
		if err := sage.Create(paths["web"], web.g); err != nil {
			return c, err
		}
		if err := sage.Create(paths["feed"], feed.g); err != nil {
			return c, err
		}
		n, err := startNode(paths)
		if err != nil {
			return c, err
		}
		c.replicas[name] = n
		peers = append(peers, cluster.Peer{Name: name, URL: n.url})
	}
	var err error
	if c.router, err = cluster.NewRouter(cluster.RouterConfig{Peers: peers, Replication: len(peers), ProbeInterval: -1}); err != nil {
		return c, err
	}
	// Start is a no-op with probes off, but Close waits for it.
	c.router.Start()
	c.front, err = listen(c.router)
	return c, err
}

var elapsedField = regexp.MustCompile(`"elapsed_ms":[0-9.e+-]+`)

// sameModuloElapsed compares two run bodies ignoring elapsed_ms, the one
// field a routed reply may not share with a direct one.
func sameModuloElapsed(a, b []byte) bool {
	return bytes.Equal(elapsedField.ReplaceAll(a, nil), elapsedField.ReplaceAll(b, nil))
}

func runClusterRoute(rc *runCtx) error {
	web, err := makeGraph(rc.sc.serveLogN, rc.cfg.seed)
	if err != nil {
		return err
	}
	feed, err := makeGraph(rc.sc.feedLogN, rc.cfg.seed+1)
	if err != nil {
		return err
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	rng := rand.New(rand.NewSource(int64(rc.cfg.seed) + 4))
	edges := feed.nonEdges(rng, rc.sc.preload+rc.sc.onePool+rc.sc.bulkOps+spareEdges)
	pool := togglePool(edges[:rc.sc.onePool])
	table := makeHitTable(rand.New(rand.NewSource(int64(rc.cfg.seed)+5)), rc.sc.hitKeys)
	exp := newExpectations(web)

	// Set-up: both replicas' containers and servers, the router, the
	// warmed keys (through the router, so they land where reads will), and
	// one cycle of the request mix.
	c, err := setUp(rc, func(dir string) (*routed, error) {
		c, err := startCluster(dir, web, feed)
		if err != nil {
			return c, err
		}
		if err := warmKeys(hc, c.front.url, "web", web, rc.sc.hitKeys, exp); err != nil {
			return c, err
		}
		c.lanes = []*lane{{base: c.front.url, clients: clients(), exp: exp,
			next: func(i int) request { return routeRequest(web, table, pool, rc.sc.hitKeys, i) }}}
		return c, firstCycle(hc, c.lanes, routeCycle)
	}, (*routed).stop)
	if err != nil {
		return err
	}
	defer c.stop()

	webPrimary := c.primary("web")
	p, err := measure(rc, hc, webPrimary.url, c.lanes, clsHit, 99)
	if err != nil {
		return err
	}
	deepCheck(rc, p.kept, web.g.RawCSR())
	reads, most := 0, 0
	for _, n := range p.routed {
		reads += n
		most = max(most, n)
	}
	rc.out.set("cluster.read_share_max", float64(most)/float64(max(reads, 1)))

	if err := checkRouted(rc, hc, c, web); err != nil {
		return err
	}
	if rc.cfg.trace {
		if err := probeServer(rc, hc, webPrimary, webPrimary.datasets["web"], "web", web, clsHit, nil); err != nil {
			return err
		}
		feedPrimary := c.primary("feed")
		// feed's overlay holds half the toggle pool on average.
		if err := probeUpdates(rc, feedPrimary, feedPrimary.datasets["feed"], "feed", edges, len(pool)/2); err != nil {
			return err
		}
		if err := probeCluster(rc, hc, c, web, reserved(edges)); err != nil {
			return err
		}
	}

	// End state on every owner: the arc count the toggle sequence implies,
	// surviving a restart.
	present := pool.present(routeUpdates(int(c.lanes[0].issued.Load())))
	for _, name := range c.router.Owners("feed") {
		if err := checkEndState(rc, hc, c.replicas[name], "feed", feed, present); err != nil {
			return err
		}
	}
	return nil
}

// checkRouted verifies that a routed reply equals the owner's direct
// reply modulo elapsed_ms.
func checkRouted(rc *runCtx, hc *http.Client, c *routed, web *graphInput) error {
	rc.out.attempted++
	// A source no lane or probe reaches: the far end of the shuffled list.
	fresh := bfsRequest("web", web.src(len(web.giant)-1), false, clsOther, expectRun)
	viaRouter, hdr, err := post(hc, c.front.url, fresh)
	if err != nil {
		return err
	}
	owner := c.replicas[hdr.Get(cluster.RoutedToHeader)]
	if owner == nil {
		rc.out.fail("routed reply names no known replica in %s", cluster.RoutedToHeader)
		return nil
	}
	direct, _, err := post(hc, owner.url, fresh)
	if err != nil {
		return err
	}
	if !sameModuloElapsed(viaRouter, direct) {
		rc.out.fail("routed body differs from the owner's direct body beyond elapsed_ms")
	}
	return nil
}
