package cluster

// Property tests for the consistent-hash ring: the two guarantees the
// serving tier leans on are balance (no replica owns a pathological
// share of the keyspace) and minimal movement (a membership change only
// moves the keys touching the changed replica — everything else keeps
// its owner, so replica caches and WAL shards stay warm).

import (
	"fmt"
	"testing"
)

// primary is key's first owner on r ("" on an empty ring).
func primary(r *Ring, key string) string {
	if owners := r.Owners(key, 1); len(owners) == 1 {
		return owners[0]
	}
	return ""
}

// mustRing builds a ring at DefaultVNodes or fails the test.
func mustRing(t *testing.T, members ...string) *Ring {
	t.Helper()
	r, err := NewRing(DefaultVNodes, members...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// keys generates n synthetic dataset names.
func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("dataset-%d", i)
	}
	return out
}

// TestRingBalance checks the advertised bound: at DefaultVNodes every
// member's share of a large keyspace is within ±25% of fair, across
// several member counts.
func TestRingBalance(t *testing.T) {
	const n = 20000
	for _, members := range []int{2, 3, 5, 8, 16} {
		names := make([]string, members)
		for i := range names {
			names[i] = fmt.Sprintf("replica-%d", i)
		}
		r := mustRing(t, names...)
		counts := map[string]int{}
		for _, k := range keys(n) {
			counts[primary(r, k)]++
		}
		fair := float64(n) / float64(members)
		for _, name := range names {
			share := float64(counts[name]) / fair
			if share < 0.75 || share > 1.25 {
				t.Errorf("%d members: %s owns %.0f%% of fair share (%d keys)",
					members, name, share*100, counts[name])
			}
		}
	}
}

// TestRingMinimalMovementOnRemove checks that a ring without one member
// moves only that member's keys: every key it did not own keeps its
// owner.
func TestRingMinimalMovementOnRemove(t *testing.T) {
	r := mustRing(t, "a", "b", "c", "d")
	ks := keys(5000)
	before := make(map[string]string, len(ks))
	for _, k := range ks {
		before[k] = primary(r, k)
	}
	r = mustRing(t, "a", "b", "d")
	moved := 0
	for _, k := range ks {
		after := primary(r, k)
		if before[k] == "c" {
			if after == "c" {
				t.Fatalf("key %s still owned by removed member", k)
			}
			moved++
			continue
		}
		if after != before[k] {
			t.Fatalf("key %s moved %s -> %s though %s is still a member",
				k, before[k], after, before[k])
		}
	}
	if moved == 0 {
		t.Fatal("removed member owned no keys at all")
	}
}

// TestRingMinimalMovementOnAdd checks the converse: a new member only
// takes keys, and only for itself — no key moves between old members.
func TestRingMinimalMovementOnAdd(t *testing.T) {
	r := mustRing(t, "a", "b", "c")
	ks := keys(5000)
	before := make(map[string]string, len(ks))
	for _, k := range ks {
		before[k] = primary(r, k)
	}
	r = mustRing(t, "a", "b", "c", "d")
	taken := 0
	for _, k := range ks {
		after := primary(r, k)
		if after == before[k] {
			continue
		}
		if after != "d" {
			t.Fatalf("key %s moved %s -> %s on adding d", k, before[k], after)
		}
		taken++
	}
	if taken == 0 {
		t.Fatal("new member took no keys at all")
	}
	// And ~1/4 of the keyspace should land on the newcomer (±25% again).
	if share := float64(taken) / (float64(len(ks)) / 4); share < 0.75 || share > 1.25 {
		t.Errorf("new member took %.0f%% of its fair share", share*100)
	}
}

// TestRingInsertionOrderIrrelevant checks that ownership is a pure
// function of the member set, not of construction history.
func TestRingInsertionOrderIrrelevant(t *testing.T) {
	r1, err := NewRing(64, "a", "b", "c", "d")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing(64, "d", "b", "a", "c")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys(2000) {
		if o1, o2 := primary(r1, k), primary(r2, k); o1 != o2 {
			t.Fatalf("key %s: owners diverge (%s / %s)", k, o1, o2)
		}
	}
}

// TestRingOwners checks the preference-list contract: distinct members,
// primary first, truncated at the member count, stable for a given key.
func TestRingOwners(t *testing.T) {
	r := mustRing(t, "a", "b", "c")
	for _, k := range keys(500) {
		owners := r.Owners(k, 2)
		if len(owners) != 2 {
			t.Fatalf("key %s: %d owners, want 2", k, len(owners))
		}
		if owners[0] == owners[1] {
			t.Fatalf("key %s: duplicate owner %s", k, owners[0])
		}
		if owners[0] != primary(r, k) {
			t.Fatalf("key %s: Owners(k, 2)[0]=%s but Owners(k, 1)[0]=%s", k, owners[0], primary(r, k))
		}
	}
	if got := r.Owners("any", 99); len(got) != 3 {
		t.Fatalf("over-asking yields %d owners, want all 3", len(got))
	}
	if got := r.Owners("any", 0); got != nil {
		t.Fatalf("n=0 yields %v, want nil", got)
	}
}

// TestRingErrors covers the constructor's rejection paths and the empty
// and single-member rings' behavior.
func TestRingErrors(t *testing.T) {
	if _, err := NewRing(8, "a", "a"); err == nil {
		t.Fatal("duplicate member accepted")
	}
	if _, err := NewRing(8, ""); err == nil {
		t.Fatal("empty member name accepted")
	}
	r, err := NewRing(8)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Owners("k", 1); got != nil {
		t.Fatalf("empty ring owners = %v, want nil", got)
	}
	if r, err = NewRing(8, "a"); err != nil || primary(r, "k") != "a" {
		t.Fatal("single-member ring must own everything")
	}
}

// TestParsePeers covers the -peers flag syntax.
func TestParsePeers(t *testing.T) {
	peers, err := ParsePeers("r0=http://a:1, r1=http://b:2/,")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 || peers[0].Name != "r0" || peers[1].URL != "http://b:2" {
		t.Fatalf("parsed %+v", peers)
	}
	for _, bad := range []string{"", "r0", "r0=", "=http://a", "r0=not a url", "r0=/relative"} {
		if _, err := ParsePeers(bad); err == nil {
			t.Fatalf("ParsePeers(%q) accepted", bad)
		}
	}
}
