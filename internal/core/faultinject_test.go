package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"sitam/internal/sischedule"
	"sitam/internal/tam"
)

// faultEvaluator wraps an Evaluator and fails the failAt-th Evaluate
// call (1-based) with err, simulating a downstream component that dies
// or notices its own deadline mid-search.
type faultEvaluator struct {
	inner  Evaluator
	failAt int
	calls  int
	err    error
}

func (f *faultEvaluator) Evaluate(a *tam.Architecture) (int64, error) {
	f.calls++
	if f.calls == f.failAt {
		return 0, f.err
	}
	return f.inner.Evaluate(a)
}

// TestEvaluatorErrorPropagates injects a hard (non-context) failure at
// every evaluation point of the search and checks that the error
// surfaces unwrapped-able and that no partial result is fabricated.
func TestEvaluatorErrorPropagates(t *testing.T) {
	sentinel := errors.New("injected evaluator failure")
	base := &SIEvaluator{Groups: smallGroups(), Model: sischedule.DefaultModel()}

	// Count the evaluations of a clean run to size the sweep.
	probe := &faultEvaluator{inner: base, failAt: -1}
	eng, err := NewEngine(smallSOC(), 8, probe)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := eng.OptimizeCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	total := probe.calls
	if total < 10 {
		t.Fatalf("clean run made only %d evaluations, fixture too small", total)
	}

	for failAt := 1; failAt <= total; failAt++ {
		fe := &faultEvaluator{inner: base, failAt: failAt, err: sentinel}
		eng.Eval = fe
		a, _, st, err := eng.OptimizeCtx(context.Background())
		if !errors.Is(err, sentinel) {
			t.Fatalf("failAt=%d: err = %v, want the injected sentinel", failAt, err)
		}
		if a != nil || st.Partial {
			t.Fatalf("failAt=%d: hard failure returned arch=%v status=%+v", failAt, a, st)
		}
	}
}

// TestStalledEvaluatorYieldsPartial injects a context-wrapped error —
// an evaluator that aborted because its own downstream deadline fired —
// at every point after the start solution exists, and checks the run
// degrades to a valid partial result whose reported objective matches
// the returned architecture (i.e. the incumbent was not corrupted by
// the interrupted probe).
func TestStalledEvaluatorYieldsPartial(t *testing.T) {
	stall := fmt.Errorf("evaluator aborted: %w", context.DeadlineExceeded)
	base := &SIEvaluator{Groups: smallGroups(), Model: sischedule.DefaultModel()}

	probe := &faultEvaluator{inner: base, failAt: -1}
	eng, err := NewEngine(smallSOC(), 8, probe) // wmax > #cores: feasible from construction
	if err != nil {
		t.Fatal(err)
	}
	_, fullObj, _, err := eng.OptimizeCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	total := probe.calls

	// failAt=1 hits the very first evaluation, before any feasible
	// architecture exists: the context error is the right answer.
	fe := &faultEvaluator{inner: base, failAt: 1, err: stall}
	eng.Eval = fe
	if a, _, _, err := eng.OptimizeCtx(context.Background()); !errors.Is(err, context.DeadlineExceeded) || a != nil {
		t.Fatalf("failAt=1: got arch=%v err=%v, want nil arch and DeadlineExceeded", a, err)
	}

	for failAt := 2; failAt <= total; failAt++ {
		fe := &faultEvaluator{inner: base, failAt: failAt, err: stall}
		eng.Eval = fe
		a, obj, st, err := eng.OptimizeCtx(context.Background())
		if err != nil {
			t.Fatalf("failAt=%d: err = %v, want graceful degradation", failAt, err)
		}
		if !st.Partial || st.Reason == "" {
			t.Fatalf("failAt=%d: status %+v, want Partial with a reason", failAt, st)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("failAt=%d: partial architecture invalid: %v", failAt, err)
		}
		if obj < fullObj {
			t.Fatalf("failAt=%d: partial obj %d beats full-run obj %d", failAt, obj, fullObj)
		}
		if again, err := base.Evaluate(a); err != nil || again != obj {
			t.Fatalf("failAt=%d: reported obj %d, re-evaluated %d (err %v): best-so-far corrupted", failAt, obj, again, err)
		}
	}
}

// TestStalledEvaluatorDuringILS checks the same contract one layer up:
// an evaluator stall during the kick rounds returns the pre-kick best,
// flagged partial, with no error.
func TestStalledEvaluatorDuringILS(t *testing.T) {
	stall := fmt.Errorf("evaluator aborted: %w", context.Canceled)
	base := &SIEvaluator{Groups: smallGroups(), Model: sischedule.DefaultModel()}

	probe := &faultEvaluator{inner: base, failAt: -1}
	eng, err := NewEngine(smallSOC(), 8, probe)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := eng.OptimizeCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	greedyCalls := probe.calls

	_, greedyObj, _, err := eng.OptimizeCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Fail a few evaluations into the ILS phase.
	fe := &faultEvaluator{inner: base, failAt: greedyCalls + 3, err: stall}
	eng.Eval = fe
	a, obj, st, err := eng.OptimizeILSRestartsCtx(context.Background(), 50, 1, 1)
	if err != nil {
		t.Fatalf("err = %v, want graceful degradation", err)
	}
	if !st.Partial {
		t.Fatalf("status %+v, want Partial", st)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("partial architecture invalid: %v", err)
	}
	if obj > greedyObj {
		t.Fatalf("ILS partial obj %d worse than its own greedy incumbent %d", obj, greedyObj)
	}
	if again, err := base.Evaluate(a); err != nil || again != obj {
		t.Fatalf("reported obj %d, re-evaluated %d (err %v)", obj, again, err)
	}
}

// TestNoGoroutineLeakAfterCancel runs many cancelled and timed-out
// optimizations and checks the goroutine count settles back to the
// baseline: the anytime machinery must not strand workers or timers.
func TestNoGoroutineLeakAfterCancel(t *testing.T) {
	eng := newSIEngine(t, 8)
	before := runtime.NumGoroutine()

	for i := 0; i < 25; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%5)*time.Millisecond)
		_, _, _, _ = eng.OptimizeILSRestartsCtx(ctx, 20, 1, int64(i))
		cancel()

		cctx, ccancel := context.WithCancel(context.Background())
		ccancel()
		_, _, _, _ = eng.OptimizeCtx(cctx)
	}

	// Timer goroutines from WithTimeout unwind asynchronously; allow a
	// grace period before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: before=%d after=%d, leak suspected", before, runtime.NumGoroutine())
		}
		time.Sleep(50 * time.Millisecond)
	}
}
