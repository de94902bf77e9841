package main

// In-memory span recording for the traced pass. Spans are recorded by
// the benchmark's own code, around the calls it makes into each module's
// exported functions and around each socket exchange; nothing inside the
// program under test is instrumented. They stay in memory and are
// written out once, when the run ends.

import (
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval. Start and End are nanoseconds since the
// tracer started; Parent is the ID of the span that caused this one (0
// for a root); spans of one request share Req.
type span struct {
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0  time.Time
	ids atomic.Uint32

	mu   sync.Mutex
	bufs []*spanBuf
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanBuf is one goroutine's private span list, so recording takes no
// lock on the request path.
type spanBuf struct {
	t     *tracer
	spans []span
}

// buf returns a fresh private buffer. A nil tracer returns a nil buffer,
// whose methods record nothing: the untraced pass runs the same code.
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{t: t}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// begin opens a span and returns its index in the buffer (-1 untraced).
func (b *spanBuf) begin(name string, parent uint32, req int64) int {
	if b == nil {
		return -1
	}
	b.spans = append(b.spans, span{
		ID: b.t.ids.Add(1), Parent: parent, Req: req, Name: name,
		Start: time.Since(b.t.t0).Nanoseconds(),
	})
	return len(b.spans) - 1
}

// end closes the span at index i.
func (b *spanBuf) end(i int) {
	if b != nil {
		b.spans[i].End = time.Since(b.t.t0).Nanoseconds()
	}
}

// id returns the ID of the span at index i (0 untraced), for use as a
// child's parent.
func (b *spanBuf) id(i int) uint32 {
	if b == nil {
		return 0
	}
	return b.spans[i].ID
}

// all returns every recorded span.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	return out
}

// maxSpansPerName caps what the span file keeps of each span name: the
// metrics are computed over every timed call, the file is a sample to
// read (the first calls of each name, so a kept parent keeps its children).
const maxSpansPerName = 10

// traceFile is the span file's layout.
type traceFile struct {
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Recorded int            `json:"spans_recorded"`
	Dropped  map[string]int `json:"spans_dropped_from_file,omitempty"`
	Spans    []span         `json:"spans"`
}

// write stores a per-name sample of the spans at path.
func (t *tracer) write(path, workload string, seed uint64) error {
	spans := t.all()
	tf := traceFile{Workload: workload, Seed: seed, Recorded: len(spans), Dropped: map[string]int{}}
	kept := map[string]int{}
	for _, s := range spans {
		if kept[s.Name] < maxSpansPerName {
			kept[s.Name]++
			tf.Spans = append(tf.Spans, s)
		} else {
			tf.Dropped[s.Name]++
		}
	}
	return writeJSON(path, tf)
}
