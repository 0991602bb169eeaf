package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"sitam/internal/sifault"
	"sitam/internal/sischedule"
	"sitam/internal/soc"
)

// countdownCtx is a deterministic stand-in for a deadline: Err starts
// returning context.DeadlineExceeded after n calls. Every interruption
// point in the optimization stack polls ctx.Err() directly (rather
// than selecting on Done), so this fake can drive cancellation to any
// exact point of the search without wall-clock flakiness.
type countdownCtx struct {
	context.Context
	n int
}

func (c *countdownCtx) Err() error {
	if c.n <= 0 {
		return context.DeadlineExceeded
	}
	c.n--
	return nil
}

func newCountdown(n int) *countdownCtx {
	return &countdownCtx{Context: context.Background(), n: n}
}

// countingCtx never fires but counts how often Err is polled, to size
// countdown sweeps.
type countingCtx struct {
	context.Context
	calls int
}

func (c *countingCtx) Err() error {
	c.calls++
	return nil
}

func newSIEngine(t *testing.T, wmax int) *Engine {
	t.Helper()
	s := smallSOC()
	eng, err := NewEngine(s, wmax, &SIEvaluator{Groups: smallGroups(), Model: sischedule.DefaultModel()})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestOptimizeCtxPreCancelled(t *testing.T) {
	eng := newSIEngine(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a, _, st, err := eng.OptimizeCtx(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if a != nil || st.Partial {
		t.Fatalf("pre-cancelled run returned arch=%v status=%+v, want nothing", a, st)
	}
}

func TestOptimizeILSCtxPreCancelled(t *testing.T) {
	eng := newSIEngine(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a, _, st, err := eng.OptimizeILSRestartsCtx(ctx, 5, 1, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if a != nil || st.Partial {
		t.Fatalf("pre-cancelled run returned arch=%v status=%+v, want nothing", a, st)
	}
}

// TestOptimizeCtxCountdownSweep interrupts OptimizeCtx after every
// possible number of context polls and checks the anytime contract at
// each cut point: a context error only when nothing feasible existed
// yet, otherwise a valid partial architecture whose objective is never
// better than the full run's (the incumbent only ever improves).
func TestOptimizeCtxCountdownSweep(t *testing.T) {
	for _, wmax := range []int{3, 8} { // 3 exercises merge-down, 8 free-wire distribution
		eng := newSIEngine(t, wmax)
		counter := &countingCtx{Context: context.Background()}
		fullA, fullObj, st, err := eng.OptimizeCtx(counter)
		if err != nil || st.Partial {
			t.Fatalf("wmax=%d: full run failed: %v %+v", wmax, err, st)
		}
		if err := fullA.Validate(); err != nil {
			t.Fatalf("wmax=%d: full-run architecture invalid: %v", wmax, err)
		}

		sawPartial, sawComplete := false, false
		for n := 0; n <= counter.calls+1; n++ {
			a, obj, st, err := eng.OptimizeCtx(newCountdown(n))
			switch {
			case err != nil:
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("wmax=%d n=%d: unexpected error %v", wmax, n, err)
				}
				if a != nil {
					t.Fatalf("wmax=%d n=%d: error with non-nil architecture", wmax, n)
				}
			case st.Partial:
				sawPartial = true
				if st.Reason == "" {
					t.Fatalf("wmax=%d n=%d: partial result without a reason", wmax, n)
				}
				if err := a.Validate(); err != nil {
					t.Fatalf("wmax=%d n=%d: partial architecture invalid: %v", wmax, n, err)
				}
				if a.TotalWidth() > wmax {
					t.Fatalf("wmax=%d n=%d: partial width %d exceeds budget", wmax, n, a.TotalWidth())
				}
				if obj < fullObj {
					t.Fatalf("wmax=%d n=%d: partial obj %d beats full-run obj %d", wmax, n, obj, fullObj)
				}
				// The returned objective must describe the returned
				// architecture — catches incumbents corrupted by an
				// interrupted probe.
				if again, err := eng.Eval.Evaluate(a); err != nil || again != obj {
					t.Fatalf("wmax=%d n=%d: reported obj %d, re-evaluated %d (err %v)", wmax, n, obj, again, err)
				}
			default:
				sawComplete = true
				if obj != fullObj {
					t.Fatalf("wmax=%d n=%d: complete run obj %d != %d", wmax, n, obj, fullObj)
				}
			}
		}
		if !sawPartial || !sawComplete {
			t.Fatalf("wmax=%d: sweep saw partial=%v complete=%v, want both", wmax, sawPartial, sawComplete)
		}
	}
}

// TestOptimizeILSCtxCountdownSweep does the same sweep over the ILS
// wrapper: a partial result is never better than the full ILS run and
// never worse than what a plain greedy run achieves at that cut.
func TestOptimizeILSCtxCountdownSweep(t *testing.T) {
	const wmax, kicks, seed = 8, 4, 1
	eng := newSIEngine(t, wmax)
	counter := &countingCtx{Context: context.Background()}
	_, fullObj, st, err := eng.OptimizeILSRestartsCtx(counter, kicks, 1, seed)
	if err != nil || st.Partial {
		t.Fatalf("full ILS run failed: %v %+v", err, st)
	}

	sawPartial := false
	for n := 0; n <= counter.calls+1; n += 3 {
		a, obj, st, err := eng.OptimizeILSRestartsCtx(newCountdown(n), kicks, 1, seed)
		switch {
		case err != nil:
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("n=%d: unexpected error %v", n, err)
			}
		case st.Partial:
			sawPartial = true
			if err := a.Validate(); err != nil {
				t.Fatalf("n=%d: partial architecture invalid: %v", n, err)
			}
			if obj < fullObj {
				t.Fatalf("n=%d: partial obj %d beats full-run obj %d", n, obj, fullObj)
			}
		default:
			if obj != fullObj {
				t.Fatalf("n=%d: complete run obj %d != %d", n, obj, fullObj)
			}
		}
	}
	if !sawPartial {
		t.Fatal("sweep never produced a partial result")
	}
}

// TestOptimizeILSCtxDeadlineP93791 is the end-to-end acceptance test:
// a real wall-clock deadline expiring mid-search on the p93791
// benchmark yields a valid, schedulable architecture flagged Partial
// with no error.
func TestOptimizeILSCtxDeadlineP93791(t *testing.T) {
	s := soc.MustLoadBenchmark("p93791")
	patterns, _, err := sifault.GenerateCtx(context.Background(), s, sifault.GenConfig{N: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := BuildGroupsCtx(context.Background(), s, patterns, GroupingOptions{Parts: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Wmax above the core count: the start solution is feasible from
	// construction, so any mid-run interruption must degrade
	// gracefully rather than error. A kick budget this large would run
	// for minutes; the deadline cuts it short.
	wmax := len(s.Cores()) + 8
	eng, err := NewEngine(s, wmax, &SIEvaluator{Groups: gr.Groups, Model: sischedule.DefaultModel()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	a, obj, st, err := eng.OptimizeILSRestartsCtx(ctx, 100000, 1, 1)
	if err != nil {
		t.Fatalf("deadline run errored: %v", err)
	}
	if !st.Partial {
		t.Fatalf("deadline run not flagged partial (obj %d)", obj)
	}
	if st.Reason == "" {
		t.Fatal("partial result without a reason")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("partial architecture invalid: %v", err)
	}
	if a.TotalWidth() > wmax {
		t.Fatalf("partial width %d exceeds budget %d", a.TotalWidth(), wmax)
	}
	// The partial architecture must be schedulable: the combined
	// objective recomputes Algorithm 1 end to end.
	if again, err := eng.Eval.Evaluate(a); err != nil || again != obj {
		t.Fatalf("reported obj %d, re-evaluated %d (err %v)", obj, again, err)
	}
}
