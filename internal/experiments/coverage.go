package experiments

import (
	"context"
	"fmt"
	"io"

	"sitam/internal/sifault"
	"sitam/internal/sisim"
	"sitam/internal/soc"
	"sitam/internal/topology"
)

// RunCoverage demonstrates the paper's premise quantitatively: high SI
// fault coverage on core-external interconnects requires very large
// pattern counts. It builds an interconnect topology over a benchmark
// SOC, grades growing prefixes of randomly generated SI patterns with
// the behavioral fault simulator, and contrasts the curve with the
// deterministic maximal-aggressor test set (complete by construction
// at 6 patterns per net).
//
// The context is checked between stages; a cancelled or expired context
// stops the study with a trailing note and the context's error.
func RunCoverage(ctx context.Context, w io.Writer, seed int64, quick bool) error {
	s, err := soc.LoadBenchmark("p34392")
	if err != nil {
		return err
	}
	topo, err := topology.Random(s, topology.RandomConfig{FanOut: 2, Width: 16, BusFraction: 0.5}, seed)
	if err != nil {
		return err
	}
	k := 3
	sim, err := sisim.New(topo, sisim.Config{LocalityK: k, Threshold: 0.6})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "SI fault coverage on %s: %d nets, %d MA faults (locality k=%d, threshold 0.6)\n",
		s.Name, len(topo.Nets), 6*len(topo.Nets), k)

	ma, err := topology.MAPatterns(topo, k)
	if err != nil {
		return err
	}
	maCov := sim.Grade(ma)
	fmt.Fprintf(w, "  deterministic MA set: %d patterns -> %.1f%% coverage\n",
		len(ma), 100*maCov.Fraction())

	if err := ctx.Err(); err != nil {
		fmt.Fprintf(w, "  [stopped before random-pattern curve: %v]\n", err)
		return err
	}
	n := 80000
	checkpoints := []int{1000, 5000, 10000, 20000, 40000, 80000}
	if quick {
		n = 8000
		checkpoints = []int{500, 2000, 8000}
	}
	random, _, err := sifault.GenerateCtx(context.Background(), s, sifault.GenConfig{N: n, Seed: seed})
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		fmt.Fprintf(w, "  [stopped before coverage grading: %v]\n", err)
		return err
	}
	curve := sim.CoverageCurve(random, checkpoints)
	fmt.Fprintf(w, "  random patterns (the N_r protocol):\n")
	for i, cp := range checkpoints {
		fmt.Fprintf(w, "    N_r=%6d: %5.1f%% coverage\n", cp, 100*curve[i])
	}
	fmt.Fprintf(w, "  -> random stimuli need orders of magnitude more patterns than the\n")
	fmt.Fprintf(w, "     deterministic set for the same faults, which is why the paper's\n")
	fmt.Fprintf(w, "     N_r reaches 100000 and SI test time rivals core-internal test time.\n")
	return nil
}
