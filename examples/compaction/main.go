// Compaction demonstrates the two dimensions of the paper's SI test-set
// compaction in isolation (Section 3 and Fig. 2):
//
//   - vertical: greedy clique-cover merging of compatible patterns,
//     including the shared-bus conflict rule, compared against the
//     DSATUR and exact reference covers on a small set;
//   - horizontal: hypergraph partitioning of the cores so most patterns
//     shrink to the wrapper cells of one core group, with the cut
//     hyperedges (the Fig. 2 "7-4-6" pattern) kept at full length.
package main

import (
	"context"
	"fmt"
	"log"

	"sitam"
	"sitam/internal/compaction"
	"sitam/internal/hypergraph"
	"sitam/internal/sifault"
)

func main() {
	ctx := context.Background()
	log.SetFlags(0)
	s, err := sitam.LoadBenchmark("p34392")
	if err != nil {
		log.Fatal(err)
	}
	sp := sitam.NewPatternSpace(s)

	// Vertical compaction: greedy vs the reference covers.
	small, _, err := sitam.GeneratePatterns(ctx, s, sitam.GenConfig{N: 18, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	_, gStats, _ := compaction.Greedy(ctx, sp, small, nil, "")
	_, dStats, err := compaction.DSATUR(small)
	if err != nil {
		log.Fatal(err)
	}
	_, eStats, err := compaction.Exact(ctx, small)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Vertical compaction of 18 patterns (clique cover of the compatibility graph):")
	fmt.Printf("  greedy (paper's heuristic): %d patterns\n", gStats.Compacted)
	fmt.Printf("  DSATUR coloring:            %d patterns\n", dStats.Compacted)
	fmt.Printf("  exact minimum cover:        %d patterns\n", eStats.Compacted)

	// The shared-bus rule at work.
	a := &sifault.Pattern{
		Care:   []sifault.Care{{Pos: 0, Sym: sifault.Rise}},
		Bus:    []sifault.BusUse{{Line: 3, Driver: 1}},
		Weight: 1,
	}
	b := &sifault.Pattern{
		Care:   []sifault.Care{{Pos: 100, Sym: sifault.Fall}},
		Bus:    []sifault.BusUse{{Line: 3, Driver: 2}},
		Weight: 1,
	}
	fmt.Printf("\nShared-bus rule: disjoint patterns driving bus line 3 from cores 1 and 2:")
	fmt.Printf(" compatible = %v (must be false)\n", compaction.Compatible(a, b))

	// Horizontal compaction at scale.
	patterns, _, err := sitam.GeneratePatterns(ctx, s, sitam.GenConfig{N: 20000, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nTwo-dimensional compaction of %d patterns on %s:\n", len(patterns), s.Name)
	fmt.Printf("%-4s %10s %10s %10s %12s\n", "g", "compacted", "ratio", "residual", "max group len")
	for _, g := range []int{1, 2, 4, 8} {
		gr, err := sitam.BuildGroups(ctx, s, patterns, sitam.GroupingOptions{Parts: g, Seed: 5})
		if err != nil {
			log.Fatal(err)
		}
		maxLen := 0
		for _, grp := range gr.Groups {
			l := 0
			for _, id := range grp.Cores {
				l += s.CoreByID(id).WOC()
			}
			if grp.Name != "RES" && l > maxLen {
				maxLen = l
			}
		}
		fmt.Printf("%-4d %10d %10.1f %10d %12d\n",
			g, gr.TotalCompacted(), gr.Stats.Ratio(), gr.CutPatterns, maxLen)
	}
	fmt.Printf("(full pattern length: %d WOCs)\n", s.TotalWOC())

	// The Fig. 2 example: eight cores, hyperedges = care-core sets,
	// one edge (7-4-6) spanning the parts.
	fmt.Println("\nFig. 2 reconstruction: 8 cores, patterns as hyperedges, 2 parts")
	h := hypergraph.New([]int64{8, 8, 8, 8, 8, 8, 8, 8})
	edges := [][]int{{0, 1}, {1, 2}, {0, 2}, {4, 5}, {5, 7}, {4, 7}, {6, 3, 5}}
	for _, e := range edges {
		if err := h.AddEdge(e, 1); err != nil {
			log.Fatal(err)
		}
	}
	assign, cut, _, err := hypergraph.PartitionK(ctx, h, 2, hypergraph.Options{Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  parts: %v, cut hyperedges: %d (the cut patterns stay full-length)\n", assign, cut)
}
