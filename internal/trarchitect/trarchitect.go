// Package trarchitect provides the paper's baseline: the TR-Architect
// algorithm of Goel and Marinissen ("Effective and Efficient Test
// Architecture Design for SOCs", ITC 2002), which designs a TestRail
// architecture minimizing the core-internal test time only, oblivious to
// core-external interconnect SI tests.
//
// It runs the shared optimization engine of package core with the
// InTest-only objective, so the baseline and the paper's SI-aware
// Algorithm 2 differ in exactly one thing — the objective function —
// mirroring the comparison made in the paper's Tables 2 and 3: T_[8]
// (this package) versus T_g_i (package core).
package trarchitect

import (
	"context"

	"sitam/internal/core"
	"sitam/internal/sischedule"
	"sitam/internal/soc"
	"sitam/internal/tam"
)

// OptimizeWithCtx designs a TestRail architecture of total width wmax
// for s, minimizing the SOC internal test time T_soc_in. Candidate
// evaluation is parallel and memoized per cfg (see
// core.ParallelConfig); the selected architecture is byte-identical at
// any worker count. It has the best-so-far semantics of
// core.(*Engine).OptimizeCtx: interruption mid-search returns the
// incumbent architecture with Status.Partial set and a nil error.
func OptimizeWithCtx(ctx context.Context, s *soc.SOC, wmax int, cfg core.ParallelConfig) (*tam.Architecture, int64, core.Status, error) {
	eng, _, err := core.NewParallelEngine(s, wmax, core.InTestEvaluator{}, cfg)
	if err != nil {
		return nil, 0, core.Status{}, err
	}
	return eng.OptimizeCtx(ctx)
}

// LowerBound returns a lower bound on the achievable SOC internal test
// time at total TAM width wmax, after Goel and Marinissen: no schedule
// can beat either the largest single-core test time at full width (a
// core cannot use more wires than exist) or the total test data volume
// spread perfectly over all wires (width-1 test time approximates each
// core's volume in wire-cycles).
func LowerBound(s *soc.SOC, wmax int) (int64, error) {
	eng, err := core.NewEngine(s, wmax, core.InTestEvaluator{})
	if err != nil {
		return 0, err
	}
	var maxCore, volume int64
	for _, c := range s.Cores() {
		t := eng.Times.Time(c.ID, wmax)
		if t > maxCore {
			maxCore = t
		}
		volume += eng.Times.Time(c.ID, 1)
	}
	area := (volume + int64(wmax) - 1) / int64(wmax)
	if maxCore > area {
		return maxCore, nil
	}
	return area, nil
}

// OptimizeThenScheduleSIWith reproduces the T_[8] column of the
// paper's tables: optimize the architecture for InTest only, then
// compute the total testing time T_soc = T_in + T_si once the SI test
// groups are scheduled on that SI-oblivious architecture. Candidate
// evaluation, memoization, tracing and metrics follow cfg, and
// Result.Cause, Result.Cache and Result.Metrics are populated the same
// way as for the SI-aware optimizer. Interruption mid-optimization
// evaluates and returns the best SI-oblivious architecture found so far
// with Result.Partial set. It is core.Solve with AlgoBaseline.
func OptimizeThenScheduleSIWith(ctx context.Context, s *soc.SOC, wmax int, groups []*sischedule.Group, m sischedule.Model, cfg core.ParallelConfig) (*core.Result, error) {
	return core.Solve(ctx, s, wmax, groups, m, core.Algo{Kind: core.AlgoBaseline}, cfg)
}
