package cluster

import (
	"testing"
	"time"
)

// TestRouterStartCloseLifecycle pins the lifecycle Close and Start
// promise: Close returns without a Start (it used to wait forever on a
// channel only Start closed), with probing disabled, and when repeated;
// a second Start launches nothing (it used to close that channel twice
// and panic); and a Start after Close leaves no prober running.
func TestRouterStartCloseLifecycle(t *testing.T) {
	peers := []Peer{{Name: "a", URL: "http://127.0.0.1:1"}}
	cases := map[string]struct {
		probeEvery time.Duration
		steps      func(rt *Router)
	}{
		"close-without-start":  {time.Hour, func(rt *Router) { rt.Close() }},
		"close-twice":          {time.Hour, func(rt *Router) { rt.Start(); rt.Close(); rt.Close() }},
		"start-twice":          {time.Hour, func(rt *Router) { rt.Start(); rt.Start(); rt.Close() }},
		"start-twice-disabled": {-1, func(rt *Router) { rt.Start(); rt.Start(); rt.Close() }},
		"start-after-close":    {time.Hour, func(rt *Router) { rt.Close(); rt.Start(); rt.Close() }},
		"close-disabled":       {-1, func(rt *Router) { rt.Close() }},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			rt, err := NewRouter(RouterConfig{Peers: peers, ProbeInterval: tc.probeEvery})
			if err != nil {
				t.Fatal(err)
			}
			finished := make(chan struct{})
			go func() {
				defer close(finished)
				tc.steps(rt)
			}()
			select {
			case <-finished:
			case <-time.After(10 * time.Second):
				t.Fatal("Start/Close sequence did not return")
			}
		})
	}
}
