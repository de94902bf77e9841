package server

import "testing"

// The result cache: both bounds evict least-recent first, replacing a key
// re-counts its bytes, an oversized result is refused, and a nil cache is
// a valid always-miss.
func TestResultCacheBounds(t *testing.T) {
	key := func(ds string) runKey { return runKey{dataset: ds, gen: 1, algo: "bfs"} }
	result := func(n int) cachedResult { return cachedResult{body: make([]byte, n)} }

	c := newResultCache(3, 100)
	c.put(key("a"), result(10))
	c.put(key("b"), result(10))
	c.put(key("c"), result(10))
	if _, ok := c.get(key("a")); !ok { // a is now most recent
		t.Fatal("a missing")
	}
	c.put(key("d"), result(10)) // entry cap: evicts b, the least recent
	if _, ok := c.get(key("b")); ok {
		t.Fatal("b survived the entry cap")
	}
	c.put(key("big"), result(26)) // over a quarter of the byte budget: refused
	if _, ok := c.get(key("big")); ok {
		t.Fatal("oversized result was cached")
	}
	c.put(key("a"), cachedResult{body: make([]byte, 20), slim: make([]byte, 5)}) // replace: 10 bytes out, 25 in
	if st := c.stats(); st.Entries != 3 || st.Bytes != 45 {
		t.Fatalf("after replace: %+v", st)
	}
	c.put(key("e"), result(25))
	c.put(key("f"), result(25)) // entries c, d pushed out by the entry cap
	c.put(key("g"), result(25)) // a (25) + e + f + g = 100: fits the bytes, not the entries
	if st := c.stats(); st.Entries != 3 || st.Bytes != 75 {
		t.Fatalf("after fill: %+v", st)
	}
	if v, ok := c.get(key("e")); !ok || len(v.body) != 25 {
		t.Fatalf("e = %d bytes, %v", len(v.body), ok)
	}
	// The key is the whole tuple: another generation or argument is
	// another entry.
	other := key("e")
	other.gen = 2
	if _, ok := c.get(other); ok {
		t.Fatal("generation 2 hit generation 1's entry")
	}
	other = key("e")
	other.args.Src = 1
	if _, ok := c.get(other); ok {
		t.Fatal("src 1 hit src 0's entry")
	}
	st := c.stats()
	if st.Entries != 3 || st.Bytes != 75 || st.Capacity != 3 || st.BytesLimit != 100 {
		t.Fatalf("final: %+v", st)
	}
	if st.Hits != 2 || st.Misses != 4 {
		t.Fatalf("hits/misses = %d/%d, want 2/4", st.Hits, st.Misses)
	}

	// The byte cap alone: many small results under a roomy entry cap.
	b := newResultCache(100, 40)
	for i := range 10 {
		b.put(key(string(rune('a'+i))), result(10))
	}
	if st := b.stats(); st.Entries != 4 || st.Bytes != 40 {
		t.Fatalf("byte cap: %+v", st)
	}
	if _, ok := b.get(key("a")); ok {
		t.Fatal("oldest entry survived the byte cap")
	}

	off := newResultCache(0, 0)
	off.put(key("k"), result(1))
	if _, ok := off.get(key("k")); ok || off.stats() != (resultCacheStats{}) {
		t.Fatal("disabled cache holds something")
	}
}
