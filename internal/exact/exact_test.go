package exact

import (
	"context"
	"math/rand"
	"testing"

	"sitam/internal/sischedule"
	"sitam/internal/soc"
)

func tinySOC(rng *rand.Rand, n int) *soc.SOC {
	s := &soc.SOC{Name: "tiny", BusWidth: 8}
	for id := 1; id <= n; id++ {
		c := &soc.Core{
			ID:       id,
			Inputs:   1 + rng.Intn(10),
			Outputs:  1 + rng.Intn(10),
			Patterns: 1 + rng.Intn(60),
		}
		for j := rng.Intn(3); j > 0; j-- {
			c.ScanChains = append(c.ScanChains, 1+rng.Intn(40))
		}
		s.CoreList = append(s.CoreList, c)
	}
	return s
}

func tinyGroups(rng *rand.Rand, s *soc.SOC) []*sischedule.Group {
	var groups []*sischedule.Group
	k := 1 + rng.Intn(3)
	for gi := 0; gi < k; gi++ {
		var cores []int
		for _, c := range s.Cores() {
			if rng.Intn(2) == 0 {
				cores = append(cores, c.ID)
			}
		}
		if len(cores) == 0 {
			cores = []int{s.Cores()[0].ID}
		}
		groups = append(groups, &sischedule.Group{
			Name:     "g",
			Cores:    cores,
			Patterns: int64(1 + rng.Intn(200)),
		})
	}
	return groups
}

func TestExactRejectsLargeInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := tinySOC(rng, 9)
	if _, err := Optimize(context.Background(), s, 4, nil, sischedule.Model{}); err == nil {
		t.Error("accepted 9 cores")
	}
	s4 := tinySOC(rng, 4)
	if _, err := Optimize(context.Background(), s4, 0, nil, sischedule.Model{}); err == nil {
		t.Error("accepted wmax=0")
	}
}

func TestExactSingleCore(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := tinySOC(rng, 1)
	res, err := Optimize(context.Background(), s, 3, nil, sischedule.Model{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Architecture.Rails) != 1 || res.Architecture.Rails[0].Width != 3 {
		t.Errorf("single core optimum = %v", res.Architecture)
	}
}

func TestExactFindsObviousOptimum(t *testing.T) {
	// Two identical cores, width 2: the optimum is one rail each.
	s := &soc.SOC{Name: "pair", BusWidth: 4, CoreList: []*soc.Core{
		{ID: 1, Inputs: 2, Outputs: 2, ScanChains: []int{10}, Patterns: 10},
		{ID: 2, Inputs: 2, Outputs: 2, ScanChains: []int{10}, Patterns: 10},
	}}
	res, err := Optimize(context.Background(), s, 2, nil, sischedule.Model{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Architecture.Rails) != 2 {
		t.Errorf("optimum uses %d rails, want 2:\n%s", len(res.Architecture.Rails), res.Architecture)
	}
	// Serializing both on one 2-wire rail costs ~2x; parallel 1+1 is
	// the max of the two.
	if res.Objective >= int64(2*s.CoreList[0].Patterns*10) {
		t.Errorf("objective %d looks serialized", res.Objective)
	}
}

func TestHeuristicGapInTestOnly(t *testing.T) {
	worst := 0.0
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := tinySOC(rng, 3+rng.Intn(3))
		wmax := 2 + rng.Intn(5)
		gap, err := Gap(s, wmax, nil, sischedule.Model{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if gap > worst {
			worst = gap
		}
	}
	// The heuristic engine should be within 15% of optimal on tiny
	// InTest-only instances (it is usually exact).
	if worst > 0.15 {
		t.Errorf("worst heuristic gap %.1f%% exceeds 15%%", 100*worst)
	}
	t.Logf("worst InTest-only heuristic gap over 15 instances: %.2f%%", 100*worst)
}

func TestHeuristicGapWithSI(t *testing.T) {
	worst := 0.0
	for seed := int64(20); seed < 32; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := tinySOC(rng, 3+rng.Intn(3))
		groups := tinyGroups(rng, s)
		wmax := 2 + rng.Intn(4)
		gap, err := Gap(s, wmax, groups, sischedule.DefaultModel())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if gap > worst {
			worst = gap
		}
	}
	// The combined objective is lumpier; allow 20%.
	if worst > 0.20 {
		t.Errorf("worst SI-aware heuristic gap %.1f%% exceeds 20%%", 100*worst)
	}
	t.Logf("worst SI-aware heuristic gap over 12 instances: %.2f%%", 100*worst)
}

func TestExactEvaluationCount(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := tinySOC(rng, 3)
	res, err := Optimize(context.Background(), s, 3, nil, sischedule.Model{})
	if err != nil {
		t.Fatal(err)
	}
	// 3 cores, W=3: partitions {1}{2}{3} (1 comp), {12}{3} x3 (each 2
	// comps), {123} (1 comp of 1 part... widths 1..3 -> 3... wait:
	// compositions of 3 into 1 part = 1). Partition widths:
	//   k=3: compositions of 3 into 3 positive parts = 1; 1 partition.
	//   k=2: compositions = 2; 3 partitions.
	//   k=1: compositions = 1; 1 partition.
	// Total = 1*1 + 3*2 + 1*1 = 8.
	if res.Evaluated != 8 {
		t.Errorf("evaluated %d candidates, want 8", res.Evaluated)
	}
}
