package server

// The encode-once contract: encodeRun's two renderings are exactly the
// bytes json.Marshal produces for runResponse with and without its value,
// for every registry algorithm and for the edge values of each fast path.

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"sage"
)

// marshalRun is the reference: the two json.Marshal calls encodeRun
// replaces.
func marshalRun(resp runResponse) (body, slim []byte, err error) {
	if body, err = json.Marshal(resp); err != nil {
		return nil, nil, err
	}
	resp.Value = nil
	slim, err = json.Marshal(resp)
	return body, slim, err
}

func checkEncodeRun(t *testing.T, name string, resp runResponse) (body []byte) {
	t.Helper()
	wantBody, wantSlim, werr := marshalRun(resp)
	body, slim, err := encodeRun(resp)
	if (err != nil) != (werr != nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("%s: error %v, json.Marshal's %v", name, err, werr)
	}
	if !bytes.Equal(body, wantBody) {
		t.Fatalf("%s: body differs from json.Marshal\n got %.300s\nwant %.300s", name, body, wantBody)
	}
	if !bytes.Equal(slim, wantSlim) {
		t.Fatalf("%s: slim body differs from json.Marshal\n got %s\nwant %s", name, slim, wantSlim)
	}
	if resp.Value != nil && cap(body) != len(body) {
		t.Fatalf("%s: body holds %d bytes in a %d-byte allocation", name, len(body), cap(body))
	}
	return body
}

// TestEncodeRunMatchesMarshalEveryAlgorithm runs every registry algorithm
// on a weighted RMAT-10 graph (set cover with its sets declared) and
// compares both renderings with json.Marshal's. Bodies are kept until the
// end: a later encode must not write through an earlier one's bytes.
func TestEncodeRunMatchesMarshalEveryAlgorithm(t *testing.T) {
	g, err := sage.GenerateRMAT(10, 8, 5).WithUniformWeights(7)
	if err != nil {
		t.Fatal(err)
	}
	e := sage.NewEngine()
	kept := map[string][2][]byte{}
	for _, a := range sage.Algorithms() {
		var args sage.AlgoArgs
		if a.SetCover {
			args.NumSets = 256
		}
		canon, err := sage.CanonicalArgs(a.Name, args)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.RunAlgorithm(context.Background(), a.Name, g, canon)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		resp := runResponse{
			Dataset: "web \"quoted\" ,\"stats\":", Generation: 3, Algo: a.Name, Args: canon,
			Summary: res.Summary, Value: res.Value, Stats: statsJSON(res.Stats), ElapsedMS: 1.25,
		}
		want, _, _ := marshalRun(resp)
		kept[a.Name] = [2][]byte{checkEncodeRun(t, a.Name, resp), want}
	}
	for name, k := range kept {
		if !bytes.Equal(k[0], k[1]) {
			t.Errorf("%s: body changed after later encodes", name)
		}
	}
}

// TestAppendValueEdgeValues covers each fast path's boundaries: digit
// counts, the integer extremes, signed zeros, the float format switch
// points, subnormals, non-finite errors, and nil versus empty slices.
func TestAppendValueEdgeValues(t *testing.T) {
	values := map[string]any{
		"uint32 digits":  []uint32{0, 9, 10, 99, 100, 999, 1000, 12345, 99999, 100000, math.MaxUint32 - 1, math.MaxUint32},
		"int64 extremes": []int64{0, 9, 10, 99, 100, -1, -9, -10, -99, -100, math.MaxInt64, math.MinInt64, math.MinInt64 + 1},
		"float64 format": []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 1e-7, -1e-7, 9.999999e-7,
			1e20, 1e21, -1e21, 123456789e13, 1e-9, 1.5e-10, 1e100, 1e-100, math.MaxFloat64, math.SmallestNonzeroFloat64,
			2.2250738585072014e-308, 4.9e-324, 0.85, 1.0 / 3},
		"bool":          []bool{true, false, true},
		"nil uint32":    []uint32(nil),
		"empty uint32":  []uint32{},
		"nil int64":     []int64(nil),
		"empty int64":   []int64{},
		"nil float64":   []float64(nil),
		"empty float64": []float64{},
		"nil bool":      []bool(nil),
		"empty bool":    []bool{},
		"+Inf":          []float64{1, math.Inf(1)},
		"-Inf":          []float64{math.Inf(-1)},
		"NaN":           []float64{0, math.NaN()},
		"edges":         []sage.Edge{{U: 1, V: 2}},
		"nil edges":     []sage.Edge(nil),
		"scalar":        int64(-7),
		"struct":        &struct{ Count uint64 }{42},
		"nil interface": nil,
	}
	for name, v := range values {
		want, werr := json.Marshal(v)
		got, err := appendValue([]byte("prefix"), v)
		if werr != nil {
			if err == nil || err.Error() != werr.Error() {
				t.Errorf("%s: error %v, json.Marshal's %v", name, err, werr)
			}
		} else if err != nil || !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Errorf("%s: got %s (%v), want prefix%s", name, got, err, want)
		}
		checkEncodeRun(t, name, runResponse{Dataset: "d", Algo: "a", Summary: "s", Value: v})
	}
}

// FuzzAppendValue feeds arbitrary bits through every integer and float
// fast path against encoding/json, non-finite floats included.
func FuzzAppendValue(f *testing.F) {
	for _, bits := range []uint64{0, 9, 10, 99, 100, math.MaxUint32, 1 << 63, math.MaxUint64,
		math.Float64bits(1e-7), math.Float64bits(1e21), math.Float64bits(math.Inf(1)), 0x7ff8000000000001, 1} {
		f.Add(bits)
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		for _, v := range []any{
			[]uint32{uint32(bits), uint32(bits >> 32)},
			[]int64{int64(bits), -int64(bits)},
			[]float64{math.Float64frombits(bits), float64(int64(bits)) / 1e9},
		} {
			want, werr := json.Marshal(v)
			got, err := appendValue(nil, v)
			if werr != nil {
				if err == nil || err.Error() != werr.Error() {
					t.Fatalf("%v: error %v, json.Marshal's %v", v, err, werr)
				}
				continue
			}
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%v: got %s (%v), want %s", v, got, err, want)
			}
		}
	})
}

var encodedBody []byte

// BenchmarkEncodeRunBody times one cache miss's encoding of a BFS answer
// (the parents array of an RMAT-16 graph), against the two reflected
// marshals it replaced.
func BenchmarkEncodeRunBody(b *testing.B) {
	g := sage.GenerateRMAT(16, 8, 1)
	e := sage.NewEngine()
	canon, _ := sage.CanonicalArgs("bfs", sage.AlgoArgs{})
	res, err := e.RunAlgorithm(context.Background(), "bfs", g, canon)
	if err != nil {
		b.Fatal(err)
	}
	resp := runResponse{Dataset: "web", Generation: 1, Algo: "bfs", Args: canon,
		Summary: res.Summary, Value: res.Value, Stats: statsJSON(res.Stats), ElapsedMS: 1.5}
	b.Run("encodeRun", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			body, _, err := encodeRun(resp)
			if err != nil {
				b.Fatal(err)
			}
			encodedBody = body
		}
		b.SetBytes(int64(len(encodedBody)))
	})
	b.Run("json.Marshal", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			body, _, err := marshalRun(resp)
			if err != nil {
				b.Fatal(err)
			}
			encodedBody = body
		}
		b.SetBytes(int64(len(encodedBody)))
	})
}
