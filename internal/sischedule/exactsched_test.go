package sischedule

import (
	"context"
	"math/rand"
	"testing"

	"sitam/internal/soc"
	"sitam/internal/tam"
	"sitam/internal/wrapper"
)

func TestExactScheduleFig3(t *testing.T) {
	s, tt := fig3SOC(t)
	a := tam.New(s, tt)
	a.AddRail([]int{1, 4, 5}, 2)
	a.AddRail([]int{2, 3}, 2)
	groups := fig3Groups()
	// Algorithm 1 achieves 360 here, which is also optimal: SI1 (both
	// rails, 120) serializes with everything, and SI2 (240) dominates
	// SI3 (40) on the other rail.
	opt, nodes, _, err := ExactSchedule(context.Background(), a, groups, Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if opt != 360 {
		t.Errorf("optimal makespan = %d, want 360", opt)
	}
	if nodes <= 0 {
		t.Error("no nodes explored")
	}
	greedy, err := ScheduleSITest(a, groups, Model{})
	if err != nil {
		t.Fatal(err)
	}
	if greedy.TotalSI < opt {
		t.Errorf("greedy %d beat the optimum %d", greedy.TotalSI, opt)
	}
}

func TestExactScheduleEmptyAndLimits(t *testing.T) {
	s, tt := fig3SOC(t)
	a := tam.New(s, tt)
	a.AddRail([]int{1, 2, 3, 4, 5}, 2)
	opt, _, _, err := ExactSchedule(context.Background(), a, nil, Model{}, nil, nil)
	if err != nil || opt != 0 {
		t.Errorf("empty = (%d, %v)", opt, err)
	}
	var many []*Group
	for i := 0; i < MaxExactGroups+1; i++ {
		many = append(many, &Group{Name: "g", Cores: []int{1}, Patterns: 1})
	}
	if _, _, _, err := ExactSchedule(context.Background(), a, many, Model{}, nil, nil); err == nil {
		t.Error("accepted too many groups")
	}
}

// TestGreedyNeverBeatsExact is the core soundness property: Algorithm 1
// must be lower-bounded by the exact branch-and-bound makespan, and on
// these small instances it should also be close to it.
func TestGreedyNeverBeatsExact(t *testing.T) {
	s := &soc.SOC{Name: "x", BusWidth: 8}
	for id := 1; id <= 6; id++ {
		s.CoreList = append(s.CoreList, &soc.Core{
			ID: id, Inputs: 2, Outputs: 4 + id, ScanChains: []int{5}, Patterns: 5,
		})
	}
	tt, err := wrapper.NewTimeTable(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	worstGap := 0.0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := tam.New(s, tt)
		// Random 2-3 rails.
		nRails := 2 + rng.Intn(2)
		railCores := make([][]int, nRails)
		for id := 1; id <= 6; id++ {
			r := rng.Intn(nRails)
			railCores[r] = append(railCores[r], id)
		}
		ok := true
		for _, rc := range railCores {
			if len(rc) == 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, rc := range railCores {
			a.AddRail(rc, 1+rng.Intn(3))
		}
		// Random 3-7 groups.
		var groups []*Group
		for gi := 3 + rng.Intn(5); gi > 0; gi-- {
			var cores []int
			for id := 1; id <= 6; id++ {
				if rng.Intn(3) == 0 {
					cores = append(cores, id)
				}
			}
			if len(cores) == 0 {
				cores = []int{1 + rng.Intn(6)}
			}
			groups = append(groups, &Group{Name: "g", Cores: cores, Patterns: int64(1 + rng.Intn(50))})
		}
		greedy, err := ScheduleSITest(a, groups, DefaultModel())
		if err != nil {
			t.Fatal(err)
		}
		opt, _, _, err := ExactSchedule(context.Background(), a, groups, DefaultModel(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if greedy.TotalSI < opt {
			t.Fatalf("seed %d: greedy %d beat exact %d — bound bug", seed, greedy.TotalSI, opt)
		}
		if opt > 0 {
			gap := float64(greedy.TotalSI-opt) / float64(opt)
			if gap > worstGap {
				worstGap = gap
			}
		}
	}
	t.Logf("worst Algorithm 1 gap vs exact schedule over 40 instances: %.2f%%", 100*worstGap)
	if worstGap > 0.35 {
		t.Errorf("Algorithm 1 gap %.1f%% is suspiciously large on tiny instances", 100*worstGap)
	}
}
