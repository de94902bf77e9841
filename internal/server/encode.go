package server

// The run endpoint's body, encoded once. encoding/json's reflected walk
// over a Θ(n) result array costs nearly a third of a BFS request's CPU,
// so only the small value-less envelope goes through it (that is the
// ?value=false rendering); the value is written by an append encoder with
// fast paths for the flat slices the registry returns, and the full body
// is the envelope with the value spliced in. Every byte matches
// json.Marshal(runResponse); encode_test.go pins that for every registry
// algorithm.

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
	"sync"
)

// valueBufs holds the scratch buffer each encode appends the value into,
// so a stream of misses reuses one buffer instead of growing one per
// request.
// The bytes are copied out into the exact-size body before the buffer
// goes back, so nothing handed to the cache aliases it.
var valueBufs = sync.Pool{New: func() any { return new([]byte) }}

// statsKey is where the value goes: runResponse declares Value directly
// before Stats, so json.Marshal writes `"value":…` just ahead of it. The
// first match in the envelope is that key. A string field cannot forge it:
// encoding/json escapes every '"' inside a string as `\"`, so the byte
// pair `,"` occurs only between members, and the only members before
// "stats" are the envelope's own scalars and the args object, which has
// no "stats" key.
var statsKey = []byte(`,"stats":`)

// encodeRun renders resp twice, as json.Marshal would: body with the
// value and slim without it (the ?value=false form). Both are freshly
// allocated and safe to retain; body is exact-size. A value JSON cannot
// carry (NaN, ±Inf) is the same *json.UnsupportedValueError json.Marshal
// reports.
func encodeRun(resp runResponse) (body, slim []byte, err error) {
	value := resp.Value
	resp.Value = nil
	slim, err = json.Marshal(resp)
	if err != nil || value == nil {
		// A nil interface is omitted by omitempty: both renderings agree.
		return slim, slim, err
	}
	bp := valueBufs.Get().(*[]byte)
	defer valueBufs.Put(bp)
	v, err := appendValue((*bp)[:0], value)
	*bp = v[:0]
	if err != nil {
		return nil, nil, err
	}
	i := bytes.Index(slim, statsKey)
	body = make([]byte, 0, len(slim)+len(`,"value":`)+len(v))
	body = append(body, slim[:i]...)
	body = append(body, `,"value":`...)
	body = append(body, v...)
	body = append(body, slim[i:]...)
	return body, slim, nil
}

// appendValue appends json.Marshal(v)'s bytes to b. The registry's flat
// result slices take the fast paths; anything else (edge lists, the
// struct results, scalars) goes through encoding/json.
//
// Each fast path first grows b to the longest rendering its elements can
// have, so a fresh pooled buffer (the pool drops them at GC) is allocated
// once rather than doubled up to size: serve_miss allocates less per
// request this way than with append's growth.
func appendValue(b []byte, v any) ([]byte, error) {
	switch s := v.(type) {
	case []uint32:
		if s == nil {
			return append(b, "null"...), nil
		}
		b = slices.Grow(b, 2+11*len(s)) // ≤ 10 digits and a comma each
		b = append(b, '[')
		for i, x := range s {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendUint(b, uint64(x))
		}
		return append(b, ']'), nil
	case []int64:
		if s == nil {
			return append(b, "null"...), nil
		}
		b = slices.Grow(b, 2+21*len(s)) // sign, ≤ 19 digits and a comma
		b = append(b, '[')
		for i, x := range s {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendInt(b, x)
		}
		return append(b, ']'), nil
	case []float64:
		if s == nil {
			return append(b, "null"...), nil
		}
		b = slices.Grow(b, 2+25*len(s)) // "-2.2250738585072014e-308,"
		b = append(b, '[')
		var err error
		for i, x := range s {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendFloat(b, x); err != nil {
				return b, err
			}
		}
		return append(b, ']'), nil
	case []bool:
		if s == nil {
			return append(b, "null"...), nil
		}
		b = slices.Grow(b, 2+6*len(s)) // "false,"
		b = append(b, '[')
		for i, x := range s {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendBool(b, x)
		}
		return append(b, ']'), nil
	}
	out, err := json.Marshal(v)
	if err != nil {
		return b, err
	}
	return append(b, out...), nil
}

// digitPairs lists "00" through "99": the integer loop emits two digits
// per division by 100.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// appendUint appends u in decimal, as strconv.AppendUint(b, u, 10) does.
func appendUint(b []byte, u uint64) []byte {
	var buf [20]byte
	i := len(buf)
	for u >= 100 {
		q := u / 100
		r := (u - q*100) * 2
		i -= 2
		buf[i+1] = digitPairs[r+1]
		buf[i] = digitPairs[r]
		u = q
	}
	if u >= 10 {
		i -= 2
		buf[i+1] = digitPairs[2*u+1]
		buf[i] = digitPairs[2*u]
	} else {
		i--
		buf[i] = byte('0' + u)
	}
	return append(b, buf[i:]...)
}

// appendInt appends x in decimal, as strconv.AppendInt(b, x, 10) does.
func appendInt(b []byte, x int64) []byte {
	if x < 0 {
		// -x overflows for MinInt64, but its uint64 conversion is right.
		return appendUint(append(b, '-'), uint64(-x))
	}
	return appendUint(b, uint64(x))
}

// appendFloat appends f as encoding/json writes a float64: ES6 number
// formatting, the shortest 'f' form unless |f| is below 1e-6 or at least
// 1e21, where it is 'e' with a one-digit negative exponent left unpadded.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}
