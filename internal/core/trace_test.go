package core

import (
	"context"
	"strings"
	"testing"

	"sitam/internal/obs"
	"sitam/internal/sifault"
	"sitam/internal/sischedule"
	"sitam/internal/soc"
)

// Differential harness for the observability layer: traces of the same
// run must be identical event by event at every worker count and on
// repetition, up to the wall-clock dur_ns field (Event.Canonical), and
// the replayed convergence curve must end at exactly the returned
// Breakdown.TimeSOC.

const traceW = 16

// traceRun executes one traced optimization and returns the result and
// the collected events.
func traceRun(t *testing.T, s *soc.SOC, groups []*sischedule.Group, m sischedule.Model, algo Algo, workers int) (*Result, []obs.Event) {
	t.Helper()
	tr := obs.NewTracer()
	res, err := Solve(context.Background(), s, traceW, groups, m, algo, ParallelConfig{Workers: workers, Trace: tr})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	events := tr.Events()
	if err := obs.ValidateTrace(events); err != nil {
		t.Fatalf("workers=%d: invalid trace: %v", workers, err)
	}
	return res, events
}

func TestTraceDeterministicAcrossWorkers(t *testing.T) {
	type input struct {
		soc  string
		algo Algo
	}
	inputs := map[string]input{
		"d695_ils_restarts3": {"d695", Algo{Kind: AlgoILS, Kicks: ilsKicks, Restarts: 3, Seed: ilsSeed}},
	}
	for name := range diffGolden {
		inputs[name] = input{soc: name}
	}
	for name, in := range inputs {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && in.soc == "p93791" {
				t.Skip("skipping the largest fixture in -short mode")
			}
			s := soc.MustLoadBenchmark(in.soc)
			groups := diffGroups(t, s)
			m := sischedule.DefaultModel()

			_, base := traceRun(t, s, groups, m, in.algo, 1)
			for _, workers := range []int{1, 2, 8} {
				_, events := traceRun(t, s, groups, m, in.algo, workers)
				if len(events) != len(base) {
					t.Fatalf("workers=%d: %d events, the first workers=1 run has %d", workers, len(events), len(base))
				}
				for i := range base {
					if got, want := events[i].Canonical(), base[i].Canonical(); got != want {
						t.Fatalf("workers=%d: event %d is %+v, the first workers=1 run has %+v", workers, i, got, want)
					}
				}
			}
		})
	}
}

func TestTraceCurveEndsAtTimeSOC(t *testing.T) {
	for name := range diffGolden {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && name == "p93791" {
				t.Skip("skipping the largest fixture in -short mode")
			}
			s := soc.MustLoadBenchmark(name)
			groups := diffGroups(t, s)
			res, events := traceRun(t, s, groups, sischedule.DefaultModel(), Algo{}, 1)
			curve := obs.Curve(events)
			if len(curve) == 0 {
				t.Fatal("trace has no convergence curve")
			}
			if got := curve[len(curve)-1].Best; got != res.Breakdown.TimeSOC {
				t.Errorf("curve ends at %d, Breakdown.TimeSOC = %d", got, res.Breakdown.TimeSOC)
			}
			// The curve is a running minimum: strictly decreasing.
			for i := 1; i < len(curve); i++ {
				if curve[i].Best >= curve[i-1].Best {
					t.Errorf("curve point %d (%d) does not improve on %d", i, curve[i].Best, curve[i-1].Best)
				}
			}
		})
	}
}

func TestBudgetStopsWithCause(t *testing.T) {
	s := soc.MustLoadBenchmark("d695")
	groups := diffGroups(t, s)
	m := sischedule.DefaultModel()
	tr := obs.NewTracer()
	res, err := TAMOptimizationWith(context.Background(), s, traceW, groups, m,
		ParallelConfig{Workers: 1, MaxEvals: 150, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("budget-capped run not partial")
	}
	if res.Cause != CauseBudget {
		t.Errorf("Cause = %v, want CauseBudget", res.Cause)
	}
	if !strings.Contains(res.Reason, "evaluation budget exhausted") {
		t.Errorf("Reason = %q", res.Reason)
	}
	var hit bool
	for _, ev := range tr.Events() {
		if ev.Type == obs.DeadlineHit && ev.Cause == "budget" {
			hit = true
		}
	}
	if !hit {
		t.Error("trace carries no deadline_hit event with cause budget")
	}
	if got := res.Metrics.Counter("evals"); got < 150 {
		t.Errorf("evals metric = %d, want >= 150", got)
	}

	// An ample budget must not trip.
	full, err := TAMOptimizationWith(context.Background(), s, traceW, groups, m,
		ParallelConfig{Workers: 1, MaxEvals: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if full.Partial || full.Cause != CauseNone {
		t.Errorf("ample budget run partial: %v (%s)", full.Cause, full.Reason)
	}
}

func TestCauseOf(t *testing.T) {
	cases := []struct {
		err    error
		want   StopCause
		label  string
		reason string
	}{
		{nil, CauseNone, "", ""},
		{context.DeadlineExceeded, CauseDeadline, "deadline", "deadline exceeded"},
		{context.Canceled, CauseCancel, "interrupted", "cancelled"},
		{ErrBudgetExhausted, CauseBudget, "budget", "evaluation budget exhausted"},
	}
	for _, c := range cases {
		got := CauseOf(c.err)
		if got != c.want {
			t.Errorf("CauseOf(%v) = %v, want %v", c.err, got, c.want)
		}
		if got.Label() != c.label {
			t.Errorf("%v.Label() = %q, want %q", got, got.Label(), c.label)
		}
		if got.String() != c.reason {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), c.reason)
		}
	}
}

func TestResultMetricsSnapshot(t *testing.T) {
	s := soc.MustLoadBenchmark("d695")
	groups := diffGroups(t, s)
	m := sischedule.DefaultModel()

	reg := obs.NewRegistry()
	res, err := TAMOptimizationWith(context.Background(), s, traceW, groups, m,
		ParallelConfig{Workers: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Metrics
	if snap == nil {
		t.Fatal("Result.Metrics is nil")
	}
	if snap.Counter("evals") <= 0 {
		t.Error("evals counter missing")
	}
	if snap.Counter("cache_hits")+snap.Counter("cache_misses") <= 0 {
		t.Error("cache counters missing")
	}
	if got := snap.Gauges["pool_workers"]; got != 2 {
		t.Errorf("pool_workers = %d, want 2", got)
	}
	if snap.Counter("pool_batches") <= 0 || snap.Counter("pool_candidates") <= 0 {
		t.Error("pool counters missing")
	}
	if snap.Counter("pool_busy_ns") <= 0 || snap.Counter("pool_wall_ns") <= 0 {
		t.Error("pool timing counters missing")
	}
	var phases int
	for name := range snap.Histograms {
		if strings.HasPrefix(name, "phase_ns_") {
			phases++
		}
	}
	if phases < 4 {
		t.Errorf("%d phase duration histograms, want >= 4", phases)
	}

	// Without a registry the snapshot still carries the evaluation and
	// cache counters, so CLIs can report them unconditionally.
	bare, err := TAMOptimizationWith(context.Background(), s, traceW, groups, m,
		ParallelConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if bare.Metrics == nil || bare.Metrics.Counter("evals") <= 0 {
		t.Errorf("bare run metrics = %+v", bare.Metrics)
	}
	if bare.Metrics.Counter("cache_hits")+bare.Metrics.Counter("cache_misses") <= 0 {
		t.Error("bare run cache counters missing")
	}
}

func TestSIGroupScheduledEvents(t *testing.T) {
	s := soc.MustLoadBenchmark("d695")
	groups := diffGroups(t, s)
	_, events := traceRun(t, s, groups, sischedule.DefaultModel(), Algo{}, 1)
	var slots int
	for _, ev := range events {
		if ev.Type == obs.SIGroupScheduled {
			slots++
			if ev.Group == "" || ev.Rails < 1 || ev.End < ev.Begin {
				t.Errorf("malformed slot event %+v", ev)
			}
		}
	}
	if slots == 0 {
		t.Error("trace carries no si_group_scheduled events")
	}
}

// BenchmarkNoopSinkOverhead guards the observability tax on the hot
// path: "off" runs the default configuration (nil sink, nil registry —
// the instrumentation folds to one branch per hook), "trace" and
// "metrics" enable the respective collector. The "off" numbers must
// stay within 2% of the pre-instrumentation baseline; compare "off"
// against "trace"/"metrics" to price the collectors themselves.
func BenchmarkNoopSinkOverhead(b *testing.B) {
	s := soc.MustLoadBenchmark("p34392")
	patterns, _, err := sifault.GenerateCtx(context.Background(), s, sifault.GenConfig{N: diffNr, Seed: diffSeed})
	if err != nil {
		b.Fatal(err)
	}
	gr, err := BuildGroupsCtx(context.Background(), s, patterns, GroupingOptions{Parts: diffParts, Seed: diffSeed})
	if err != nil {
		b.Fatal(err)
	}
	m := sischedule.DefaultModel()
	run := func(b *testing.B, cfg func() ParallelConfig) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := TAMOptimizationWith(context.Background(), s, 32, gr.Groups, m, cfg()); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) {
		run(b, func() ParallelConfig { return ParallelConfig{Workers: 1} })
	})
	b.Run("trace", func(b *testing.B) {
		run(b, func() ParallelConfig { return ParallelConfig{Workers: 1, Trace: obs.NewTracer()} })
	})
	b.Run("metrics", func(b *testing.B) {
		run(b, func() ParallelConfig { return ParallelConfig{Workers: 1, Metrics: obs.NewRegistry()} })
	})
}
