package cluster

// Replica membership and health. The router's routing decisions need one
// bit per peer — healthy or down — refreshed two ways: passively (a
// transport failure while proxying marks the peer down, a successful
// contact marks it up) and actively (a background prober GETs each
// peer's /readyz, so a replica that drains, crashes, or rejoins flips
// state even when no request happens to touch it). A down peer is only
// ordered after the healthy ones, never skipped, so a restarted replica
// rejoins without any registration step: its next successful contact or
// probe marks it healthy again.

import (
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Peer names one replica endpoint.
type Peer struct {
	// Name is the replica's ring identity; placement follows it, so keep
	// it stable across restarts (a renamed replica is a membership change
	// that moves keys).
	Name string
	// URL is the replica's base URL ("http://10.0.0.7:8080").
	URL string
}

// ParsePeers parses the -peers flag syntax: comma-separated name=url.
func ParsePeers(s string) ([]Peer, error) {
	var peers []Peer
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rawURL, ok := strings.Cut(part, "=")
		if !ok || name == "" || rawURL == "" {
			return nil, fmt.Errorf("cluster: peer %q: want name=url", part)
		}
		u, err := url.Parse(rawURL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: peer %q: %q is not an absolute URL", name, rawURL)
		}
		peers = append(peers, Peer{Name: name, URL: strings.TrimRight(rawURL, "/")})
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: no peers given")
	}
	return peers, nil
}

// peerState is one replica's live routing state.
type peerState struct {
	name string
	url  string

	// healthy is the routing bit. Peers start healthy (optimistically:
	// the first failed request or probe corrects it) so a router can come
	// up before its replicas finish binding.
	healthy atomic.Bool

	failures   atomic.Int64 // transport failures observed (metrics)
	probes     atomic.Int64 // health probes issued (metrics)
	probeFails atomic.Int64 // probes that found the peer not ready
}

// membership tracks every configured peer's health.
type membership struct {
	peers  map[string]*peerState
	order  []string // configured order, for stable listings
	client *http.Client

	// The background prober's lifecycle: start launches it at most once
	// and never after close; close may come first, or more than once.
	mu      sync.Mutex
	started bool
	closed  bool
	stop    chan struct{}
	prober  sync.WaitGroup
}

func newMembership(peers []Peer, client *http.Client) (*membership, error) {
	m := &membership{
		peers:  make(map[string]*peerState, len(peers)),
		client: client,
		stop:   make(chan struct{}),
	}
	for _, p := range peers {
		if _, dup := m.peers[p.Name]; dup {
			return nil, fmt.Errorf("cluster: peer %q configured twice", p.Name)
		}
		ps := &peerState{name: p.Name, url: p.URL}
		ps.healthy.Store(true)
		m.peers[p.Name] = ps
		m.order = append(m.order, p.Name)
	}
	return m, nil
}

// peer resolves a ring member name to its state.
func (m *membership) peer(name string) *peerState { return m.peers[name] }

// healthyCount reports how many peers are currently marked healthy.
func (m *membership) healthyCount() int {
	n := 0
	for _, ps := range m.peers {
		if ps.healthy.Load() {
			n++
		}
	}
	return n
}

// markDown records a failed contact: the peer is down until its next
// successful contact or probe.
func (ps *peerState) markDown() {
	ps.failures.Add(1)
	ps.healthy.Store(false)
}

// markUp records a successful contact.
func (ps *peerState) markUp() { ps.healthy.Store(true) }

// probe GETs the peer's /readyz and updates its state: only a 200 counts
// as healthy (a draining or WAL-replaying replica answers 503 and goes
// behind every healthy owner).
func (m *membership) probe(ps *peerState) {
	ps.probes.Add(1)
	resp, err := m.client.Get(ps.url + "/readyz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			ps.markUp()
			return
		}
	}
	ps.probeFails.Add(1)
	ps.markDown()
}

// probeAll probes every peer once (startup and the background loop).
func (m *membership) probeAll() {
	for _, name := range m.order {
		m.probe(m.peers[name])
	}
}

// start launches the background prober at the given interval; a
// non-positive interval disables it (passive health only). Only the first
// call does anything, and none does after close.
func (m *membership) start(interval time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if interval <= 0 || m.started || m.closed {
		return
	}
	m.started = true
	m.prober.Add(1)
	go func() {
		defer m.prober.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-ticker.C:
				m.probeAll()
			}
		}
	}()
}

// close stops the background prober, if start launched one, and waits
// for it to exit.
func (m *membership) close() {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.stop)
	}
	m.mu.Unlock()
	m.prober.Wait()
}

// peerInfo is one peer's /metrics and /v1/cluster rendering.
type peerInfo struct {
	Name       string `json:"name"`
	URL        string `json:"url"`
	Healthy    bool   `json:"healthy"`
	Failures   int64  `json:"failures,omitempty"`
	Probes     int64  `json:"probes,omitempty"`
	ProbeFails int64  `json:"probe_fails,omitempty"`
}

// info lists every peer's state in configured order.
func (m *membership) info() []peerInfo {
	out := make([]peerInfo, 0, len(m.order))
	for _, name := range m.order {
		ps := m.peers[name]
		out = append(out, peerInfo{
			Name:       ps.name,
			URL:        ps.url,
			Healthy:    ps.healthy.Load(),
			Failures:   ps.failures.Load(),
			Probes:     ps.probes.Load(),
			ProbeFails: ps.probeFails.Load(),
		})
	}
	return out
}
