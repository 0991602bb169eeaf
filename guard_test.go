package sitam

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestGuardConvertsPanics is the white-box contract of the recovery
// guard: a panic becomes an ErrInternal-wrapped error carrying the
// panic message and a stack snippet locating the fault, while normal
// returns (nil or not) pass through untouched.
func TestGuardConvertsPanics(t *testing.T) {
	boom := func() (err error) {
		defer guard(&err)
		panic("boom 42")
	}
	err := boom()
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
	if !strings.Contains(err.Error(), "boom 42") {
		t.Errorf("error lost the panic message: %v", err)
	}
	if !strings.Contains(err.Error(), ".go:") {
		t.Errorf("error carries no stack snippet: %v", err)
	}
	if strings.Count(err.Error(), "\n") > 14 {
		t.Errorf("stack snippet not trimmed:\n%v", err)
	}

	ok := func() (err error) {
		defer guard(&err)
		return nil
	}
	if err := ok(); err != nil {
		t.Fatalf("guard disturbed a clean return: %v", err)
	}
	sentinel := errors.New("ordinary failure")
	fails := func() (err error) {
		defer guard(&err)
		return sentinel
	}
	if err := fails(); !errors.Is(err, sentinel) || errors.Is(err, ErrInternal) {
		t.Fatalf("guard disturbed an ordinary error: %v", err)
	}
}

// TestFacadePanicBoundary feeds each facade entry point inputs that
// trip internal invariants (nil dereferences) and checks the panic never
// escapes the public API: the caller sees ErrInternal instead of a
// crash.
func TestFacadePanicBoundary(t *testing.T) {
	ctx := context.Background()
	if _, _, err := GeneratePatterns(ctx, nil, GenConfig{N: 1}); !errors.Is(err, ErrInternal) {
		t.Errorf("GeneratePatterns(nil SOC) err = %v, want ErrInternal", err)
	}
	if _, err := BuildGroups(ctx, nil, nil, GroupingOptions{Parts: 1}); !errors.Is(err, ErrInternal) {
		t.Errorf("BuildGroups(nil SOC) err = %v, want ErrInternal", err)
	}
	if _, err := ScheduleSI(nil, nil, DefaultModel(), nil); !errors.Is(err, ErrInternal) {
		t.Errorf("ScheduleSI(nil arch) err = %v, want ErrInternal", err)
	}
	if _, _, err := ExactScheduleSI(ctx, nil, nil, DefaultModel(), nil); !errors.Is(err, ErrInternal) {
		t.Errorf("ExactScheduleSI(nil arch) err = %v, want ErrInternal", err)
	}
	if _, err := Optimize(ctx, nil, 16, nil, DefaultModel(), Algo{}, ParallelConfig{}); !errors.Is(err, ErrInternal) {
		t.Errorf("Optimize(nil SOC) err = %v, want ErrInternal", err)
	}
	if _, err := RunTable(ctx, nil, TableConfig{}); !errors.Is(err, ErrInternal) {
		t.Errorf("RunTable(nil SOC) err = %v, want ErrInternal", err)
	}
}

// countdownCtx reports DeadlineExceeded from its n-th Err poll on: a
// deterministic stand-in for a deadline that expires mid-search.
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

// countingCtx never fires but counts how often Err is polled.
type countingCtx struct {
	context.Context
	calls int
}

func (c *countingCtx) Err() error {
	c.calls++
	return nil
}

// TestCtxFacades exercises the context handling of the facade end to
// end on a real benchmark: pre-cancelled contexts surface the context
// error, and a deadline expiring mid-optimization degrades to a valid
// partial Result for every optimizer kind.
func TestCtxFacades(t *testing.T) {
	s, err := LoadBenchmark("p34392")
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	if _, _, err := GeneratePatterns(cancelled, s, GenConfig{N: 100, Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Errorf("GeneratePatterns pre-cancelled err = %v", err)
	}
	patterns, partial, err := GeneratePatterns(context.Background(), s, GenConfig{N: 1000, Seed: 1})
	if err != nil || partial || len(patterns) != 1000 {
		t.Fatalf("GeneratePatterns = (%d patterns, partial=%v, %v)", len(patterns), partial, err)
	}
	if _, err := BuildGroups(cancelled, s, patterns, GroupingOptions{Parts: 2, Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Errorf("BuildGroups pre-cancelled err = %v", err)
	}
	gr, err := BuildGroups(context.Background(), s, patterns, GroupingOptions{Parts: 2, Seed: 1})
	if err != nil || gr.Partial {
		t.Fatalf("BuildGroups = (partial=%v, %v)", gr != nil && gr.Partial, err)
	}
	if _, err := RunTable(cancelled, s, TableConfig{}); !errors.Is(err, context.Canceled) {
		t.Errorf("RunTable pre-cancelled err = %v", err)
	}

	// Every optimizer kind: a pre-cancelled context errors out, and a
	// deadline halfway through the run's context polls yields a valid
	// partial Result no better than the complete run's. One worker
	// keeps the poll sequence deterministic.
	for _, algo := range []Algo{{Kind: AlgoSI}, {Kind: AlgoBaseline}, {Kind: AlgoILS, Kicks: 20, Restarts: 1, Seed: 1}} {
		if _, err := Optimize(cancelled, s, 16, gr.Groups, DefaultModel(), algo, serialCfg); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: Optimize pre-cancelled err = %v", algo.Kind, err)
		}
		counter := &countingCtx{Context: context.Background()}
		full, err := Optimize(counter, s, 16, gr.Groups, DefaultModel(), algo, serialCfg)
		if err != nil || full.Partial {
			t.Fatalf("%s: complete run = (partial=%v, %v)", algo.Kind, full != nil && full.Partial, err)
		}
		res, err := Optimize(&countdownCtx{Context: context.Background(), n: counter.calls / 2}, s, 16, gr.Groups, DefaultModel(), algo, serialCfg)
		if err != nil {
			t.Fatalf("%s: mid-search deadline errored: %v", algo.Kind, err)
		}
		if !res.Partial || res.Reason == "" || res.Cause != CauseDeadline {
			t.Fatalf("%s: deadline run not flagged partial by deadline: partial=%v reason=%q cause=%v",
				algo.Kind, res.Partial, res.Reason, res.Cause)
		}
		if err := res.Architecture.Validate(); err != nil {
			t.Fatalf("%s: partial Result architecture invalid: %v", algo.Kind, err)
		}
		if res.Breakdown.TimeSOC < full.Breakdown.TimeSOC {
			t.Errorf("%s: partial T_soc %d beats the complete run's %d", algo.Kind, res.Breakdown.TimeSOC, full.Breakdown.TimeSOC)
		}
	}

	// A real deadline mid-search must yield a usable partial Result,
	// not an error: a huge kick budget guarantees the run cannot finish.
	ctx, cancelT := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancelT()
	res, err := Optimize(ctx, s, 16, gr.Groups, DefaultModel(), Algo{Kind: AlgoILS, Kicks: 1000000, Restarts: 1, Seed: 1}, ParallelConfig{})
	if err != nil {
		t.Fatalf("ILS deadline run errored: %v", err)
	}
	if !res.Partial || res.Reason == "" {
		t.Fatalf("deadline run Result not flagged partial: %+v", res)
	}
	if err := res.Architecture.Validate(); err != nil {
		t.Fatalf("partial Result architecture invalid: %v", err)
	}

	// The exact scheduler facade: pre-cancelled context errors out...
	if _, _, err := ExactScheduleSI(cancelled, res.Architecture, gr.Groups, DefaultModel(), nil); !errors.Is(err, context.Canceled) {
		t.Errorf("ExactScheduleSI pre-cancelled err = %v", err)
	}
	// ...and a complete run never loses to Algorithm 1's schedule.
	exact, partial, err := ExactScheduleSI(context.Background(), res.Architecture, gr.Groups, DefaultModel(), nil)
	if err != nil || partial {
		t.Fatalf("ExactScheduleSI = (%d, partial=%v, %v)", exact, partial, err)
	}
	greedy, err := ScheduleSI(res.Architecture, gr.Groups, DefaultModel(), nil)
	if err != nil || exact > greedy.TotalSI {
		t.Fatalf("ScheduleSI = (%v, %v), exact optimum %d", greedy, err, exact)
	}
}
