package core

import (
	"context"
	"fmt"

	"sitam/internal/sischedule"
	"sitam/internal/soc"
	"sitam/internal/tam"
)

// The optimizer kinds Solve dispatches on.
const (
	// AlgoSI is the paper's SI-aware TAM_Optimization (Algorithm 2).
	AlgoSI = "si"
	// AlgoBaseline is TR-Architect: optimize for InTest only, then
	// schedule the SI groups on the SI-oblivious architecture (the
	// paper's T_[8] protocol).
	AlgoBaseline = "baseline"
	// AlgoILS is Algorithm 2 followed by iterated local search.
	AlgoILS = "ils"
)

// Algo selects the search Solve runs.
type Algo struct {
	// Kind is AlgoSI, AlgoBaseline or AlgoILS; "" selects AlgoSI.
	Kind string

	// Kicks, Restarts and Seed parameterize AlgoILS as in
	// Engine.OptimizeILSRestartsCtx (restarts < 1 is an error there);
	// the other kinds ignore them.
	Kicks    int
	Restarts int
	Seed     int64
}

// Solve designs a TestRail architecture of total width wmax for s with
// the algorithm algo, schedules the SI test groups on it and returns
// the result. It is the single optimizer dispatch behind the CLIs, the
// daemon and the facade, and owns the three choices they must agree
// on: the evaluator (InTestEvaluator for the baseline, the incremental
// SI evaluator with the SOC's compiled constraints otherwise), the
// search (OptimizeCtx or OptimizeILSRestartsCtx) and Finish. cfg sets
// concurrency, memoization, budget and observability as for
// NewParallelEngine.
//
// Solve is an anytime algorithm: an interruption mid-search returns
// the best architecture found so far with Result.Partial set and a nil
// error. The context's error comes back only when no valid
// architecture was produced.
func Solve(ctx context.Context, s *soc.SOC, wmax int, groups []*sischedule.Group, m sischedule.Model, algo Algo, cfg ParallelConfig) (*Result, error) {
	var eval Evaluator
	switch algo.Kind {
	case AlgoBaseline:
		eval = InTestEvaluator{}
	case "", AlgoSI, AlgoILS:
		cons, err := CompileSOCConstraints(s, groups)
		if err != nil {
			return nil, err
		}
		eval = NewIncrementalSIEvaluatorCons(groups, m, cons)
	default:
		return nil, fmt.Errorf("core: unknown algorithm %q (want %s, %s or %s)", algo.Kind, AlgoSI, AlgoBaseline, AlgoILS)
	}
	eng, cache, err := NewParallelEngine(s, wmax, eval, cfg)
	if err != nil {
		return nil, err
	}
	var arch *tam.Architecture
	var st Status
	if algo.Kind == AlgoILS {
		arch, _, st, err = eng.OptimizeILSRestartsCtx(ctx, algo.Kicks, algo.Restarts, algo.Seed)
	} else {
		arch, _, st, err = eng.OptimizeCtx(ctx)
	}
	if err != nil {
		return nil, err
	}
	return eng.Finish(arch, st, groups, m, cache)
}
