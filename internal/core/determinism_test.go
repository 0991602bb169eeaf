package core

import (
	"context"
	"testing"

	"sitam/internal/sischedule"
)

// TestOptimizeILSRestartsSameSeedIdenticalHash is the seeded-RNG audit
// regression: two same-seed restart runs must return structurally
// identical architectures (same Architecture.Hash), not merely equal
// objectives. A single global rand.* call anywhere in the restart
// fan-out — which runs restarts in parallel and reduces
// deterministically — would break this; the detrand analyzer enforces
// the same invariant statically.
func TestOptimizeILSRestartsSameSeedIdenticalHash(t *testing.T) {
	groups := smallGroups()
	run := func() (uint64, int64) {
		eng, err := NewEngine(smallSOC(), 6, &SIEvaluator{Groups: groups, Model: sischedule.DefaultModel()})
		if err != nil {
			t.Fatal(err)
		}
		arch, obj, _, err := eng.OptimizeILSRestartsCtx(context.Background(), 12, 4, 99)
		if err != nil {
			t.Fatal(err)
		}
		return arch.Hash(), obj
	}
	h1, o1 := run()
	h2, o2 := run()
	if h1 != h2 || o1 != o2 {
		t.Fatalf("same-seed restart runs diverged: hash %#x vs %#x, objective %d vs %d", h1, h2, o1, o2)
	}
}
