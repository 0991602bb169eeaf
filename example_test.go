package sitam_test

import (
	"context"
	"fmt"
	"log"

	"sitam"
)

// demoSOC builds a small deterministic SOC for the examples.
func demoSOC() *sitam.SOC {
	s := &sitam.SOC{Name: "demo", BusWidth: 8}
	for id := 1; id <= 4; id++ {
		s.CoreList = append(s.CoreList, &sitam.Core{
			ID:         id,
			Inputs:     4,
			Outputs:    8,
			ScanChains: []int{20, 20},
			Patterns:   50,
		})
	}
	return s
}

// ExampleOptimize runs the full pipeline — pattern generation,
// two-dimensional compaction, SI-aware TAM optimization — on a small
// SOC and prints the resulting architecture size and time breakdown.
func ExampleOptimize() {
	ctx := context.Background()
	s := demoSOC()
	patterns, _, err := sitam.GeneratePatterns(ctx, s, sitam.GenConfig{N: 500, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	groups, err := sitam.BuildGroups(ctx, s, patterns, sitam.GroupingOptions{Parts: 2, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	res, err := sitam.Optimize(ctx, s, 4, groups.Groups, sitam.DefaultModel(), sitam.Algo{}, sitam.ParallelConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("total width:", res.Architecture.TotalWidth())
	fmt.Println("T_soc equals T_in+T_si:", res.Breakdown.TimeSOC == res.Breakdown.TimeIn+res.Breakdown.TimeSI)
	// Output:
	// total width: 4
	// T_soc equals T_in+T_si: true
}

// ExampleInTestTime shows the wrapper test-time formula at two widths:
// more TAM wires shorten the wrapper scan chains.
func ExampleInTestTime() {
	c := &sitam.Core{ID: 1, Inputs: 4, Outputs: 4, ScanChains: []int{30, 30}, Patterns: 10}
	t1, _ := sitam.InTestTime(c, 1)
	t2, _ := sitam.InTestTime(c, 2)
	fmt.Println(t1, t2)
	// w=1: one 64-cell chain -> (1+64)*10+64 = 714.
	// w=2: two 32-cell chains -> (1+32)*10+32 = 362.
	// Output: 714 362
}

// ExampleMAPatterns synthesizes the maximal-aggressor test set for a
// small topology: exactly six vector pairs per interconnect.
func ExampleMAPatterns() {
	s := demoSOC()
	topo, err := sitam.RandomTopology(s, sitam.TopologyConfig{FanOut: 1, Width: 4}, 1)
	if err != nil {
		log.Fatal(err)
	}
	patterns, err := sitam.MAPatterns(topo, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(topo.Nets), "nets ->", len(patterns), "patterns")
	// Output: 16 nets -> 96 patterns
}
