package traverse

// The Auto strategy picks the direction per EdgeMap from the run
// environment's cost profile. Its choices may differ between profiles —
// that is the point — but its *output* must match the fixed strategies
// on pure ops, and without an environment it must degrade to Chunked.
// Whether it chooses well is pinned by the root package's regret test.

import (
	"fmt"
	"testing"

	"sage/internal/compress"
	"sage/internal/costmodel"
	"sage/internal/gen"
	"sage/internal/graph"
	"sage/internal/psam"
)

func TestAutoStrategyEquivalence(t *testing.T) {
	rmat := gen.RMAT(10, 8, 3)
	cases := []struct {
		name string
		g    graph.Adj
	}{
		{"rmat", rmat},
		{"rmat-byte64", compress.Compress(rmat, 64)},
	}
	ops := Ops{Update: acceptEdge, UpdateAtomic: acceptEdge, Cond: CondTrue}
	models := []costmodel.Profile{
		costmodel.Optane(), costmodel.DRAMOnly(), costmodel.ReRAM(), costmodel.FlashCSD(),
	}
	for _, tc := range cases {
		// Frontier sizes spanning the sparse->dense transition.
		for trial := 0; trial < 4; trial++ {
			vs := randomFrontier(tc.g.NumVertices(), 0.05*float64(trial*trial+1), uint64(trial)+11)
			env := psam.NewEnv(psam.AppDirect)
			ref := runSorted(tc.g, env, vs, ops, Options{Strategy: Chunked, Dedup: true})
			for i := range models {
				name := fmt.Sprintf("%s/trial%d/%s", tc.name, trial, models[i].ModelName)
				env.Profile = models[i]
				got := runSorted(tc.g, env, vs, ops, Options{Strategy: Auto, Dedup: true})
				if !equalU32(ref, got) {
					t.Fatalf("%s: auto disagrees with chunked: %d vs %d targets", name, len(got), len(ref))
				}
			}
			// Without an environment Auto must behave exactly like Chunked.
			got := runSorted(tc.g, nil, vs, ops, Options{Strategy: Auto, Dedup: true})
			if !equalU32(ref, got) {
				t.Fatalf("%s/trial%d: env-less auto disagrees with chunked", tc.name, trial)
			}
		}
	}
}
