// Topology demonstrates the interconnect-netlist path of the library
// (the arbitrary SOC interconnect topologies of the paper's Fig. 1):
// build a netlist over a benchmark SOC, derive coupling neighborhoods
// with a locality factor, synthesize deterministic MA and reduced-MT
// test sets, and push them through compaction and SI-aware TAM
// optimization.
package main

import (
	"context"
	"fmt"
	"log"

	"sitam"
)

func main() {
	ctx := context.Background()
	log.SetFlags(0)
	s, err := sitam.LoadBenchmark("p93791")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(s.Summary())

	topo, err := sitam.RandomTopology(s, sitam.TopologyConfig{FanOut: 2, Width: 16, BusFraction: 0.4}, 11)
	if err != nil {
		log.Fatal(err)
	}
	onBus := 0
	for _, n := range topo.Nets {
		if n.BusLine >= 0 {
			onBus++
		}
	}
	fmt.Printf("topology: %d nets (%d routed over the %d-bit shared bus)\n",
		len(topo.Nets), onBus, s.BusWidth)

	for _, k := range []int{1, 2, 3} {
		ma, err := sitam.MAPatterns(topo, k)
		if err != nil {
			log.Fatal(err)
		}
		groups, err := sitam.BuildGroups(ctx, s, ma, sitam.GroupingOptions{Parts: 4, Seed: 11})
		if err != nil {
			log.Fatal(err)
		}
		res, err := sitam.Optimize(ctx, s, 32, groups.Groups, sitam.DefaultModel(), sitam.Algo{}, sitam.ParallelConfig{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("MA, locality k=%d: %5d patterns -> %5d compacted; T_si=%7d cc, T_soc=%d cc\n",
			k, len(ma), groups.TotalCompacted(), res.Breakdown.TimeSI, res.Breakdown.TimeSOC)
	}

	// Reduced MT explodes with k; cap it and watch the volume climb.
	for _, k := range []int{1, 2} {
		mt, err := sitam.ReducedMTPatterns(topo, k, 300000)
		if err != nil {
			log.Fatal(err)
		}
		groups, err := sitam.BuildGroups(ctx, s, mt, sitam.GroupingOptions{Parts: 4, Seed: 11})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("reduced MT, k=%d: %6d patterns -> %6d compacted (%.1fx)\n",
			k, len(mt), groups.TotalCompacted(), groups.Stats.Ratio())
	}
}
