package server

// White-box coverage of the response-serialization contract. Every
// algorithm currently clamps its parameters into ranges whose results
// stay finite, so no endpoint can produce ±Inf today — but the guard
// must hold if one ever does: a value JSON cannot carry has to surface
// as an error status, never as a 200 with an empty body. handleRun
// answers such a run 422 and caches nothing: encodeRun's error is checked
// before s.results.put, and encode_test.go pins that encodeRun reports
// exactly the values json.Marshal rejects.

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestWriteJSONNonFiniteIsServerError(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, map[string]any{"value": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("code %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "not serializable") {
		t.Fatalf("body %q does not explain the failure", rec.Body.String())
	}
}

func TestWriteJSONHappyPath(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusTeapot, map[string]any{"ok": true})
	if rec.Code != http.StatusTeapot {
		t.Fatalf("code %d, want 418", rec.Code)
	}
	if got := rec.Header().Get("Content-Type"); got != "application/json" {
		t.Fatalf("content type %q", got)
	}
	if strings.TrimSpace(rec.Body.String()) != `{"ok":true}` {
		t.Fatalf("body %q", rec.Body.String())
	}
}
