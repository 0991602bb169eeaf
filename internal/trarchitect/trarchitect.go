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

// Optimize designs a TestRail architecture of total width wmax for s,
// minimizing the SOC internal test time T_soc_in.
func Optimize(s *soc.SOC, wmax int) (*tam.Architecture, int64, error) {
	a, obj, _, err := OptimizeCtx(context.Background(), s, wmax)
	return a, obj, err
}

// OptimizeCtx is Optimize as an anytime algorithm, with the same
// best-so-far semantics as core.(*Engine).OptimizeCtx: interruption
// mid-search returns the incumbent architecture with Status.Partial
// set and a nil error.
func OptimizeCtx(ctx context.Context, s *soc.SOC, wmax int) (*tam.Architecture, int64, core.Status, error) {
	eng, err := core.NewEngine(s, wmax, core.InTestEvaluator{})
	if err != nil {
		return nil, 0, core.Status{}, err
	}
	return eng.OptimizeCtx(ctx)
}

// OptimizeWithCtx is OptimizeCtx with parallel candidate evaluation
// and a memoized evaluation cache per cfg (see core.ParallelConfig).
// The selected architecture is byte-identical at any worker count.
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

// OptimizeThenScheduleSI reproduces the T_[8] column of the paper's
// tables: optimize the architecture for InTest only, then compute the
// total testing time T_soc = T_in + T_si once the SI test groups are
// scheduled on that SI-oblivious architecture.
func OptimizeThenScheduleSI(s *soc.SOC, wmax int, groups []*sischedule.Group, m sischedule.Model) (*core.Result, error) {
	return OptimizeThenScheduleSICtx(context.Background(), s, wmax, groups, m)
}

// OptimizeThenScheduleSICtx is OptimizeThenScheduleSI as an anytime
// algorithm: interruption mid-optimization evaluates and returns the
// best SI-oblivious architecture found so far with Result.Partial set.
func OptimizeThenScheduleSICtx(ctx context.Context, s *soc.SOC, wmax int, groups []*sischedule.Group, m sischedule.Model) (*core.Result, error) {
	return OptimizeThenScheduleSIWith(ctx, s, wmax, groups, m, core.ParallelConfig{Workers: 1, CacheSize: -1})
}

// OptimizeThenScheduleSIWith is OptimizeThenScheduleSICtx with
// parallel candidate evaluation, memoization, tracing and metrics per
// cfg. Result.Cause, Result.Cache and Result.Metrics are populated the
// same way as for the SI-aware optimizer.
func OptimizeThenScheduleSIWith(ctx context.Context, s *soc.SOC, wmax int, groups []*sischedule.Group, m sischedule.Model, cfg core.ParallelConfig) (*core.Result, error) {
	return core.Solve(ctx, s, wmax, groups, m, core.Algo{Kind: core.AlgoBaseline}, cfg)
}
