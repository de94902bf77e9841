package server

import "testing"

// The one response LRU: both bounds evict least-recent first, replacing a
// key re-counts its bytes, an oversized value is refused, Remove forgets,
// and a nil cache is a valid always-miss.
func TestLRUBounds(t *testing.T) {
	c := NewLRU[string](3, 100)
	c.Put("a", "A", 10)
	c.Put("b", "B", 10)
	c.Put("c", "C", 10)
	if _, ok := c.Get("a"); !ok { // a is now most recent
		t.Fatal("a missing")
	}
	c.Put("d", "D", 10) // entry cap: evicts b, the least recent
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived the entry cap")
	}
	c.Put("big", "X", 26) // over a quarter of the byte budget: refused
	if _, ok := c.Get("big"); ok {
		t.Fatal("oversized value was cached")
	}
	c.Put("a", "A2", 25) // replace: 10 bytes out, 25 in
	if st := c.Stats(); st.Entries != 3 || st.Bytes != 45 {
		t.Fatalf("after replace: %+v", st)
	}
	c.Put("e", "E", 25)
	c.Put("f", "F", 25) // entries c, d pushed out by the entry cap
	c.Put("g", "G", 25) // a (25) + e + f + g = 100: fits the bytes, not the entries
	if st := c.Stats(); st.Entries != 3 || st.Bytes != 75 {
		t.Fatalf("after fill: %+v", st)
	}
	if v, ok := c.Get("e"); !ok || v != "E" {
		t.Fatalf("e = %q, %v", v, ok)
	}
	c.Remove("e")
	c.Remove("never-there")
	if _, ok := c.Get("e"); ok {
		t.Fatal("e survived Remove")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Bytes != 50 || st.Capacity != 3 || st.BytesLimit != 100 {
		t.Fatalf("final: %+v", st)
	}
	if st.Hits != 2 || st.Misses != 3 {
		t.Fatalf("hits/misses = %d/%d, want 2/3", st.Hits, st.Misses)
	}

	// The byte cap alone: many small entries under a roomy entry cap.
	b := NewLRU[int](100, 40)
	for i := range 10 {
		b.Put(string(rune('a'+i)), i, 10)
	}
	if st := b.Stats(); st.Entries != 4 || st.Bytes != 40 {
		t.Fatalf("byte cap: %+v", st)
	}
	if _, ok := b.Get("a"); ok {
		t.Fatal("oldest entry survived the byte cap")
	}

	off := NewLRU[string](0, 0)
	off.Put("k", "v", 1)
	off.Remove("k")
	if _, ok := off.Get("k"); ok || off.Stats() != (LRUStats{}) {
		t.Fatal("disabled cache holds something")
	}
}
