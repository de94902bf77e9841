package server

// Unit coverage of the auto-compaction hysteresis band: the decision
// function alone, away from HTTP and real compactions, so the no-flap
// property is pinned under every overhead trajectory.

import (
	"testing"

	"sage/internal/costmodel"
)

func TestShouldAutoCompactHysteresis(t *testing.T) {
	u := newUpdates(nil, 0, Durability{}, costmodel.Optane(), 100)
	d, other := &dataset{name: "d"}, &dataset{name: "other"}

	// Ramping up below the threshold never fires.
	for _, c := range []int64{1, 40, 60, 99} {
		if u.shouldAutoCompact(d, c) {
			t.Fatalf("fired below threshold at overhead %d", c)
		}
	}
	// Crossing the high-water mark fires exactly once.
	if !u.shouldAutoCompact(d, 100) {
		t.Fatal("did not fire at the threshold")
	}
	// Hovering anywhere at or above the low-water mark stays quiet: this
	// is the no-flap band — a failed or deferred fold is not retried on
	// every batch.
	for _, c := range []int64{180, 100, 99, 60, 50} {
		if u.shouldAutoCompact(d, c) {
			t.Fatalf("flapped while disarmed at overhead %d", c)
		}
	}
	// Falling below the low-water mark re-arms (without firing)...
	if u.shouldAutoCompact(d, 49) {
		t.Fatal("fired on the re-arming dip")
	}
	// ...so the next crossing fires again.
	if !u.shouldAutoCompact(d, 100) {
		t.Fatal("did not fire after re-arming")
	}

	// Publishing the plain base (the overlay is gone: compacted or
	// cancelled out) re-arms even from the disarmed state.
	if u.shouldAutoCompact(d, 100) {
		t.Fatal("fired while disarmed")
	}
	u.publish(d, nil, 0)
	if !u.shouldAutoCompact(d, 100) {
		t.Fatal("did not fire after the plain base re-armed it")
	}

	// Datasets are independent: one dataset's disarmed state must not
	// suppress another's first crossing.
	if !u.shouldAutoCompact(other, 250) {
		t.Fatal("fresh dataset did not fire at the threshold")
	}
}
