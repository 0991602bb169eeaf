package compaction

import (
	"context"
	"fmt"

	"sitam/internal/sifault"
)

// This file holds reference clique-cover algorithms used to validate the
// greedy heuristic and to run the ablation benches. Minimum clique cover
// of the compatibility graph equals minimum proper coloring of its
// complement (the conflict graph); a color class of the conflict graph is
// a pairwise-compatible set, which (see package comment) is always a
// valid merged pattern.

// conflictGraph builds the adjacency matrix of the conflict graph:
// adj[i][j] is true when patterns i and j must NOT be merged.
func conflictGraph(patterns []*sifault.Pattern) [][]bool {
	n := len(patterns)
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !Compatible(patterns[i], patterns[j]) {
				adj[i][j] = true
				adj[j][i] = true
			}
		}
	}
	return adj
}

// groupsToPatterns merges each index group into one pattern.
func groupsToPatterns(patterns []*sifault.Pattern, groups [][]int) ([]*sifault.Pattern, error) {
	out := make([]*sifault.Pattern, 0, len(groups))
	for _, g := range groups {
		m := patterns[g[0]].Clone()
		m.VictimPos, m.VictimCore = -1, -1
		for _, idx := range g[1:] {
			var err error
			m, err = Merge(m, patterns[idx])
			if err != nil {
				return nil, fmt.Errorf("compaction: reference cover produced invalid group: %w", err)
			}
		}
		out = append(out, m)
	}
	return out, nil
}

// DSATUR compacts patterns by DSATUR coloring of the conflict graph.
// It is O(n^2) in the pattern count and intended for small-to-medium
// instances; the greedy heuristic is the production path.
func DSATUR(patterns []*sifault.Pattern) ([]*sifault.Pattern, Stats, error) {
	n := len(patterns)
	if n == 0 {
		return nil, Stats{}, nil
	}
	adj := conflictGraph(patterns)
	color := make([]int, n)
	for i := range color {
		color[i] = -1
	}
	degree := make([]int, n)
	for i := range adj {
		for j := range adj[i] {
			if adj[i][j] {
				degree[i]++
			}
		}
	}
	satur := make([]map[int]struct{}, n)
	for i := range satur {
		satur[i] = make(map[int]struct{})
	}
	nColors := 0
	for done := 0; done < n; done++ {
		// Pick the uncolored vertex with maximum saturation, breaking
		// ties by degree then index (deterministic).
		best := -1
		for i := 0; i < n; i++ {
			if color[i] >= 0 {
				continue
			}
			if best < 0 ||
				len(satur[i]) > len(satur[best]) ||
				(len(satur[i]) == len(satur[best]) && degree[i] > degree[best]) {
				best = i
			}
		}
		c := 0
		for {
			if _, used := satur[best][c]; !used {
				break
			}
			c++
		}
		color[best] = c
		if c+1 > nColors {
			nColors = c + 1
		}
		for j := 0; j < n; j++ {
			if adj[best][j] && color[j] < 0 {
				satur[j][c] = struct{}{}
			}
		}
	}
	groups := make([][]int, nColors)
	for i, c := range color {
		groups[c] = append(groups[c], i)
	}
	out, err := groupsToPatterns(patterns, groups)
	if err != nil {
		return nil, Stats{}, err
	}
	var original int64
	for _, p := range patterns {
		original += int64(p.Weight)
	}
	return out, Stats{Original: original, Compacted: len(out), Passes: n}, nil
}

// Exact computes a minimum clique cover by exact graph coloring of the
// conflict graph with branch-and-bound. Exponential; callers should keep
// n at or below roughly 20. Used only in tests to bound the greedy
// heuristic's optimality gap. Cancellation or an expired deadline
// aborts the branch-and-bound with an error wrapping ctx.Err(): a
// truncated search cannot certify minimality, so there is no degraded
// result.
func Exact(ctx context.Context, patterns []*sifault.Pattern) ([]*sifault.Pattern, Stats, error) {
	n := len(patterns)
	if n == 0 {
		return nil, Stats{}, nil
	}
	if n > 24 {
		return nil, Stats{}, fmt.Errorf("compaction: exact cover limited to 24 patterns, got %d", n)
	}
	adj := conflictGraph(patterns)

	// Upper bound from DSATUR.
	dsat, stats, err := DSATUR(patterns)
	if err != nil {
		return nil, Stats{}, err
	}
	bestK := stats.Compacted
	_ = dsat

	color := make([]int, n)
	bestColor := make([]int, n)
	for i := range color {
		color[i] = -1
	}
	// Order vertices by decreasing degree for faster pruning.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	deg := make([]int, n)
	for i := range adj {
		for j := range adj[i] {
			if adj[i][j] {
				deg[i]++
			}
		}
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && deg[order[j]] > deg[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}

	var solve func(idx, used int) bool
	found := false
	nodes := 0
	stopped := false
	solve = func(idx, used int) bool {
		nodes++
		if nodes&255 == 0 && ctx.Err() != nil {
			stopped = true
		}
		if stopped || used >= bestK {
			return false
		}
		if idx == n {
			bestK = used
			copy(bestColor, color)
			found = true
			return true
		}
		v := order[idx]
		var forbidden uint32
		for u := 0; u < n; u++ {
			if adj[v][u] && color[u] >= 0 {
				forbidden |= 1 << uint(color[u])
			}
		}
		for c := 0; c < used+1 && c < bestK; c++ {
			if forbidden&(1<<uint(c)) != 0 {
				continue
			}
			color[v] = c
			nu := used
			if c == used {
				nu++
			}
			solve(idx+1, nu)
			color[v] = -1
		}
		return false
	}
	solve(0, 0)
	if stopped {
		return nil, Stats{}, fmt.Errorf("compaction: exact cover interrupted after %d nodes: %w", nodes, ctx.Err())
	}
	if !found {
		// DSATUR was already optimal; recolor with its assignment.
		return dsat, stats, nil
	}
	groups := make([][]int, bestK)
	for i, c := range bestColor {
		groups[c] = append(groups[c], i)
	}
	out, err := groupsToPatterns(patterns, groups)
	if err != nil {
		return nil, Stats{}, err
	}
	return out, Stats{Original: stats.Original, Compacted: bestK, Passes: n}, nil
}
