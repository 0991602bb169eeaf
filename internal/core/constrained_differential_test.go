package core

import (
	"context"
	"testing"

	"sitam/internal/sischedule"
	"sitam/internal/soc"
)

// Differential suite for the constrained scheduling path: an SOC whose
// Constraints stanza is present but empty must optimize byte-identically
// to the plain SOC — same T_soc, same architecture dump, same schedule
// listing — across every fixture, width and worker count. The empty
// stanza compiles to a nil *sischedule.Constraints, so this pins the
// promise that constrained and unconstrained runs share one code path
// with zero behavioral drift for unconstrained input (the diffGolden
// values in differential_test.go pin the absolute numbers).

// withEmptyConstraints clones the SOC shallowly and attaches an empty
// constraint stanza.
func withEmptyConstraints(s *soc.SOC) *soc.SOC {
	cp := *s
	cp.Constraints = &soc.ConstraintSet{}
	return &cp
}

func TestEmptyConstraintsByteIdentical(t *testing.T) {
	for name, want := range diffGolden {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && name == "p93791" {
				t.Skip("skipping the largest fixture in -short mode")
			}
			s := soc.MustLoadBenchmark(name)
			groups := diffGroups(t, s)
			m := sischedule.DefaultModel()
			cs := withEmptyConstraints(s)
			for _, w := range diffWidths {
				plain, err := TAMOptimizationWith(context.Background(), s, w, groups, m, serialCfg)
				if err != nil {
					t.Fatalf("W=%d plain: %v", w, err)
				}
				if got := plain.Breakdown.TimeSOC; got != want.tsoc[w] {
					t.Errorf("W=%d plain T_soc = %d, want %d (engine drifted)", w, got, want.tsoc[w])
				}
				archDump := plain.Architecture.String()
				schedDump := plain.Schedule.String()
				for _, workers := range []int{1, 2, 8} {
					res, err := TAMOptimizationWith(context.Background(), cs, w, groups, m,
						ParallelConfig{Workers: workers})
					if err != nil {
						t.Fatalf("W=%d workers=%d: %v", w, workers, err)
					}
					if res.Breakdown != plain.Breakdown {
						t.Errorf("W=%d workers=%d: breakdown %+v, plain %+v",
							w, workers, res.Breakdown, plain.Breakdown)
					}
					if got := res.Architecture.String(); got != archDump {
						t.Errorf("W=%d workers=%d: architecture differs under empty constraints\nconstrained:\n%s\nplain:\n%s",
							w, workers, got, archDump)
					}
					if got := res.Schedule.String(); got != schedDump {
						t.Errorf("W=%d workers=%d: schedule differs under empty constraints\nconstrained:\n%s\nplain:\n%s",
							w, workers, got, schedDump)
					}
				}
			}
		})
	}
}

// TestNoOpConstraintsSameResult drives the other side of the coin: a
// NON-empty constraint set that cannot bind (budget far above any
// group's power) exercises the cons != nil scheduling path end to end
// and must still reproduce the unconstrained result exactly.
func TestNoOpConstraintsSameResult(t *testing.T) {
	s := soc.MustLoadBenchmark("d695")
	groups := diffGroups(t, s)
	m := sischedule.DefaultModel()
	cp := *s
	cp.Constraints = &soc.ConstraintSet{PowerBudget: 1 << 40}
	for _, w := range []int{16, 64} {
		plain, err := TAMOptimizationWith(context.Background(), s, w, groups, m, serialCfg)
		if err != nil {
			t.Fatalf("W=%d plain: %v", w, err)
		}
		capped, err := TAMOptimizationWith(context.Background(), &cp, w, groups, m, serialCfg)
		if err != nil {
			t.Fatalf("W=%d capped: %v", w, err)
		}
		if capped.Breakdown != plain.Breakdown {
			t.Errorf("W=%d: non-binding budget changed the breakdown: %+v vs %+v",
				w, capped.Breakdown, plain.Breakdown)
		}
		if capped.Architecture.String() != plain.Architecture.String() {
			t.Errorf("W=%d: non-binding budget changed the architecture", w)
		}
		if capped.Schedule.String() != plain.Schedule.String() {
			t.Errorf("W=%d: non-binding budget changed the schedule", w)
		}
	}
}
