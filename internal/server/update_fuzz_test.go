package server_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"sage/internal/server"
)

// FuzzUpdateBody throws arbitrary bytes at POST /v1/update: whatever the
// body — malformed or trailing JSON, unknown fields, out-of-range or
// self-loop endpoints, an enormous ops array — the answer is an accepted
// batch, a 400, a 404 for the unregistered dataset, or a 507 from the
// delta budget, and never a panic or a 5xx.
func FuzzUpdateBody(f *testing.F) {
	for _, seed := range []string{
		`{"ops": [{"u": 0, "v": 1}]}`,
		`{"ops": [}`,
		`{"operations": []}`,
		`{}`,
		`{"ops": [{"u": 0, "v": 2}]} {}`,
		`{"ops": [{"u": 3, "v": 3}]}`,
		`{"ops": [{"u": 0, "v": 99}]}`,
		`{"ops": [{"u": 0, "v": 2, "w": 7}]}`,
		`{"ops": [{"u": 4, "v": 5, "del": true}], "compact": true}`,
		`{"ops": [{"u": 4294967296, "v": -1}]}`,
		`{"ops": [` + strings.Repeat(`{"u": 0, "v": 2},`, 512) + `{"u": 0, "v": 3}]}`,
	} {
		f.Add([]byte(seed), true)
	}
	f.Add([]byte(`{"ops": [{"u": 0, "v": 1}]}`), false)

	// Every input meets the same fresh dataset, so a finding reproduces
	// from its input alone.
	path := makeChain(f, f.TempDir(), "chain", 10)
	pristine, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte, registered bool) {
		if err := os.WriteFile(path, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
		s := server.New(server.Config{DeltaBudgetWords: 16})
		defer s.Close()
		if err := s.AddDataset("chain", path); err != nil {
			t.Fatal(err)
		}
		dataset := "chain"
		if !registered {
			dataset = "nope"
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/update/"+dataset, bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusInsufficientStorage:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
	})
}
