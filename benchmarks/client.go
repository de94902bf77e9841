package main

// The closed-loop load generator. Each client sends its next request only
// after reading the previous reply to its last byte; clients of one lane
// draw request indices from a shared counter, so a lane's request
// sequence is fixed however its clients interleave.

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// expect names the output check applied to a reply.
type expect uint8

const (
	expectRun     expect = iota // 200 and no NVRAM writes
	expectMiss                  // + a cache miss (reads of a moving overlay, whose reach changes)
	expectBFS                   // + a cache miss carrying the graph's reach summary
	expectWBFS                  // + a cache miss carrying one distance per vertex
	expectHitSlim               // + a cache hit whose body equals the warm-up miss's, byte for byte
	expectHitFull               // same, full-value body
	expectUpdate                // 200
)

// expectations is what a lane's replies are checked against.
type expectations struct {
	reach     []byte // `"summary":"reached N of M vertices"`
	distances []byte // `"summary":"computed M distances"`
	// digests maps a hit request's path+body to the CRC-32 of the body the
	// warm-up miss returned for it.
	digests map[string]uint32
}

func newExpectations(in *graphInput) *expectations {
	return &expectations{
		reach:     []byte(`"summary":"` + in.reachSummary() + `"`),
		distances: []byte(fmt.Sprintf(`"summary":"computed %d distances"`, in.g.NumVertices())),
		digests:   map[string]uint32{},
	}
}

var noNVRAMWrites = []byte(`"nvram_writes":0,`)

// sample is one completed, verified request.
type sample struct {
	class class
	ms    float64
}

// keptReply is a reply body retained for the deep checks that run after
// the measured phase.
type keptReply struct {
	req  request
	body []byte
}

// keepPerKind is how many bfs and wbfs replies each client retains.
const keepPerKind = 2

// lane is one request sequence and the clients that share it.
type lane struct {
	base    string // server or router URL
	clients int
	next    func(i int) request
	exp     *expectations
	issued  atomic.Int64
}

// phaseResult is what one driven phase observed.
type phaseResult struct {
	wall     time.Duration
	samples  []sample
	failures []string
	failed   int
	kept     []keptReply
	routed   map[string]int // X-Sage-Routed-To -> run replies served
	allocKB  float64        // process-wide allocation during the phase
	gcPause  time.Duration
}

// byClass returns the latencies of one class.
func (p *phaseResult) byClass(c class) []float64 {
	var out []float64
	for _, s := range p.samples {
		if s.class == c {
			out = append(out, s.ms)
		}
	}
	return out
}

type loadClient struct {
	http     *http.Client
	lane     *lane
	stop     int64 // first index this phase must not issue (count-bound phases)
	buf      bytes.Buffer
	sb       *spanBuf
	samples  []sample
	failures []string
	failed   int
	kept     []keptReply
	keptN    [2]int
	routed   map[string]int
}

// newHTTPClient returns a keep-alive client; responses are never
// compressed, so body sizes are what the server wrote.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 2 * clients(),
		DisableCompression:  true,
	}}
}

// drive runs every lane's clients until dur has passed or, when count >
// 0, until each lane has issued count more requests, and merges what
// they saw. A lane's counter carries on from the previous phase, so the
// warm-up and the measured phase walk one sequence.
func drive(hc *http.Client, tr *tracer, lanes []*lane, dur time.Duration, count int) *phaseResult {
	var cs []*loadClient
	for _, ln := range lanes {
		stop := ln.issued.Load() + int64(count)
		for i := 0; i < ln.clients; i++ {
			cs = append(cs, &loadClient{http: hc, lane: ln, stop: stop, sb: tr.buf(), routed: map[string]int{}})
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *loadClient) {
			defer wg.Done()
			for {
				if count <= 0 && time.Since(start) >= dur {
					return
				}
				i := c.lane.issued.Add(1) - 1
				if count > 0 && i >= c.stop {
					c.lane.issued.Add(-1)
					return
				}
				c.do(int(i))
			}
		}(c)
	}
	wg.Wait()
	res := &phaseResult{wall: time.Since(start), routed: map[string]int{}}
	runtime.ReadMemStats(&m1)
	res.allocKB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024
	res.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	for _, c := range cs {
		res.samples = append(res.samples, c.samples...)
		res.failures = append(res.failures, c.failures...)
		res.failed += c.failed
		res.kept = append(res.kept, c.kept...)
		for peer, n := range c.routed {
			res.routed[peer] += n
		}
	}
	return res
}

// firstCycle issues each lane's first n requests, the last step of a
// set-up: the system has demonstrably answered every kind of request.
func firstCycle(hc *http.Client, lanes []*lane, n int) error {
	if first := drive(hc, nil, lanes, 0, n); first.failed > 0 {
		return fmt.Errorf("first cycle: %v", first.failures)
	}
	return nil
}

func (c *loadClient) fail(i int, r *request, format string, args ...any) {
	c.failed++
	if len(c.failures) < maxNotes {
		c.failures = append(c.failures, fmt.Sprintf("request %d %s: ", i, r.path)+fmt.Sprintf(format, args...))
	}
}

// do issues request i, reads the reply to its end, times the exchange and
// checks the reply. A failed request records no latency: it counts as
// missing every latency figure.
func (c *loadClient) do(i int) {
	r := c.lane.next(i)
	si := c.sb.begin("socket."+classNames[r.class], 0, int64(i))
	t := time.Now()
	status, hdr, err := c.exchange(&r)
	d := time.Since(t)
	c.sb.end(si)
	if err != nil {
		c.fail(i, &r, "%v", err)
		return
	}
	if status != http.StatusOK {
		c.fail(i, &r, "status %d: %.200s", status, c.buf.Bytes())
		return
	}
	if msg := c.check(&r, hdr); msg != "" {
		c.fail(i, &r, "%s", msg)
		return
	}
	c.samples = append(c.samples, sample{class: r.class, ms: float64(d.Nanoseconds()) / 1e6})
}

// exchange sends r and reads the whole reply into c.buf.
func (c *loadClient) exchange(r *request) (int, http.Header, error) {
	req, err := http.NewRequest(http.MethodPost, c.lane.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header, err
}

// check applies r's output check to the reply in c.buf, returning what
// is wrong with it ("" when nothing is).
func (c *loadClient) check(r *request, hdr http.Header) string {
	if r.check == expectUpdate {
		return ""
	}
	body := c.buf.Bytes()
	if peer := hdr.Get("X-Sage-Routed-To"); peer != "" {
		c.routed[peer]++
	}
	// The stats object closes the body, after any value array.
	if !bytes.Contains(body[max(0, len(body)-400):], noNVRAMWrites) {
		return "stats do not report nvram_writes 0"
	}
	head := body[:min(len(body), 400)]
	cache := hdr.Get("X-Sage-Cache")
	exp := c.lane.exp
	switch r.check {
	case expectMiss:
		if cache != "miss" {
			return "expected a cache miss, got " + cache
		}
	case expectBFS, expectWBFS:
		want, kind := exp.reach, 0
		if r.check == expectWBFS {
			want, kind = exp.distances, 1
		}
		if cache != "miss" {
			return "expected a cache miss, got " + cache
		}
		if !bytes.Contains(head, want) {
			return fmt.Sprintf("summary is not %s", want)
		}
		if c.keptN[kind] < keepPerKind && bytes.Contains(body, []byte(`"value":`)) {
			c.keptN[kind]++
			c.kept = append(c.kept, keptReply{req: *r, body: append([]byte(nil), body...)})
		}
	case expectHitSlim, expectHitFull:
		if cache != "hit" {
			return "expected a cache hit, got " + cache
		}
		want, ok := exp.digests[r.path+string(r.body)]
		if !ok {
			return "no warm-up digest for this key"
		}
		if got := crc32.ChecksumIEEE(body); got != want {
			return fmt.Sprintf("hit body digest %08x differs from the miss body's %08x", got, want)
		}
	}
	return ""
}
