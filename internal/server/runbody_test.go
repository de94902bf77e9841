package server_test

import (
	"bytes"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"testing"

	"sage/internal/server"
)

// runRaw posts a run and returns the status, the raw body and the headers.
func runRaw(t *testing.T, url, args string) (int, []byte, http.Header, int64) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(args))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading: %v", url, err)
	}
	return resp.StatusCode, body, resp.Header, resp.ContentLength
}

// serverTimingStages parses a Server-Timing header into its stage names,
// failing on a malformed entry or a negative duration.
func serverTimingStages(t *testing.T, h string) []string {
	t.Helper()
	var stages []string
	for _, entry := range strings.Split(h, ", ") {
		name, dur, ok := strings.Cut(entry, ";dur=")
		if !ok {
			t.Fatalf("Server-Timing %q: entry %q has no duration", h, entry)
		}
		ms, err := strconv.ParseFloat(dur, 64)
		if err != nil || ms < 0 {
			t.Fatalf("Server-Timing %q: stage %s duration %q", h, name, dur)
		}
		stages = append(stages, name)
	}
	return stages
}

// TestRunBodyLengthAndTiming: every run body — miss or hit, with or
// without the value — is sent with a Content-Length equal to the bytes
// the client reads, hit bodies equal the miss body of the same query, and
// Server-Timing lists the stages the request went through, in order.
func TestRunBodyLengthAndTiming(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	missStages := []string{"decode", "pin", "predict", "admit", "run", "encode"}
	hitStages := []string{"decode", "pin", "predict", "cache"}
	for _, algo := range []string{"bfs", "pagerank"} {
		url := ts.URL + "/v1/run/web/" + algo
		// args select the cache entry (bfs keys on src, pagerank on
		// maxiters); the first request of each misses.
		for _, c := range []struct {
			args, query, cache string
		}{
			{`{"src": 3, "maxiters": 3}`, "", "miss"},
			{`{"src": 3, "maxiters": 3}`, "", "hit"},
			{`{"src": 5, "maxiters": 5}`, "?value=false", "miss"},
			{`{"src": 5, "maxiters": 5}`, "?value=false", "hit"},
		} {
			code, body, hdr, length := runRaw(t, url+c.query, c.args)
			if code != http.StatusOK || hdr.Get("X-Sage-Cache") != c.cache {
				t.Fatalf("%s %s%s: %d cache=%q, want 200 %s", algo, c.args, c.query, code, hdr.Get("X-Sage-Cache"), c.cache)
			}
			if length != int64(len(body)) || hdr.Get("Content-Length") != strconv.Itoa(len(body)) {
				t.Fatalf("%s %s%s %s: Content-Length %q (parsed %d), read %d bytes",
					algo, c.args, c.query, c.cache, hdr.Get("Content-Length"), length, len(body))
			}
			if hasValue := bytes.Contains(body, []byte(`"value":`)); hasValue != (c.query == "") {
				t.Fatalf("%s %s%s: value present=%v", algo, c.args, c.query, hasValue)
			}
			want := missStages
			if c.cache == "hit" {
				want = hitStages
			}
			if got := serverTimingStages(t, hdr.Get("Server-Timing")); !slices.Equal(got, want) {
				t.Fatalf("%s %s: Server-Timing stages %v, want %v", algo, c.cache, got, want)
			}
		}
		// The full and slim renderings of one entry, miss against hit.
		_, miss, _, _ := runRaw(t, url, `{"src": 7, "maxiters": 7}`)
		_, hit, _, _ := runRaw(t, url, `{"src": 7, "maxiters": 7}`)
		_, slimHit, _, _ := runRaw(t, url+"?value=false", `{"src": 7, "maxiters": 7}`)
		if !bytes.Equal(miss, hit) {
			t.Fatalf("%s: hit body differs from the miss body", algo)
		}
		i := bytes.Index(miss, []byte(`,"value":`))
		if i < 0 || i > len(slimHit) || !bytes.HasPrefix(miss, slimHit[:i]) || !bytes.HasSuffix(miss, slimHit[i:]) {
			t.Fatalf("%s: slim body is not the full body without its value", algo)
		}
	}
}
