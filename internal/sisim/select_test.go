package sisim

import (
	"context"
	"testing"

	"sitam/internal/sifault"
	"sitam/internal/topology"
)

func TestSelectUsefulKeepsCoverage(t *testing.T) {
	topo := lineTopology(t, 30)
	sim, err := New(topo, Config{LocalityK: 2, Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	patterns, _, err := sifault.GenerateCtx(context.Background(), topo.SOC, sifault.GenConfig{N: 2000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	full := sim.Grade(patterns)
	sel := sim.SelectUseful(patterns)

	if sel.Coverage.Detected != full.Detected {
		t.Errorf("selection coverage %d != full coverage %d", sel.Coverage.Detected, full.Detected)
	}
	if len(sel.Kept) >= len(patterns) && full.Detected < full.Total {
		t.Errorf("selection kept everything (%d)", len(sel.Kept))
	}
	// Re-grading only the kept patterns must reproduce the coverage.
	again := sim.Grade(sel.Kept)
	if again.Detected != full.Detected {
		t.Errorf("kept set grades to %d, full to %d", again.Detected, full.Detected)
	}
	// Bookkeeping invariants.
	if len(sel.Kept) != len(sel.KeptIndex) || len(sel.Kept) != len(sel.NewFaults) {
		t.Fatal("selection slices out of sync")
	}
	sum := 0
	for i, n := range sel.NewFaults {
		if n < 1 {
			t.Errorf("kept pattern %d detected nothing new", i)
		}
		sum += n
	}
	if sum != sel.Coverage.Detected {
		t.Errorf("new-fault counts sum to %d, coverage says %d", sum, sel.Coverage.Detected)
	}
	for i := 1; i < len(sel.KeptIndex); i++ {
		if sel.KeptIndex[i] <= sel.KeptIndex[i-1] {
			t.Fatal("kept indices not ascending")
		}
	}
}

func TestSelectUsefulOnCompleteSet(t *testing.T) {
	topo := lineTopology(t, 20)
	k := 2
	sim, err := New(topo, Config{LocalityK: k, Threshold: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	ma, err := topology.MAPatterns(topo, k)
	if err != nil {
		t.Fatal(err)
	}
	sel := sim.SelectUseful(ma)
	if sel.Coverage.Detected != sel.Coverage.Total {
		t.Errorf("MA set selection covers %d/%d", sel.Coverage.Detected, sel.Coverage.Total)
	}
	// Every MA pattern targets a distinct (victim, kind) pair, so the
	// whole set is useful... except where a pattern detects several
	// faults at once and later ones arrive already-covered. At
	// threshold 1.0 with full windows, each pattern detects exactly
	// its own fault, so all 6N are kept.
	if len(sel.Kept) != len(ma) {
		t.Logf("kept %d of %d MA patterns (cross-detection dropped the rest)", len(sel.Kept), len(ma))
	}
	if len(sel.Kept) == 0 {
		t.Fatal("kept nothing")
	}
}

func TestSelectUsefulEmpty(t *testing.T) {
	topo := lineTopology(t, 5)
	sim, err := New(topo, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sel := sim.SelectUseful(nil)
	if len(sel.Kept) != 0 || sel.Coverage.Detected != 0 {
		t.Errorf("empty selection = %+v", sel)
	}
}
