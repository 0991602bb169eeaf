package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"sitam/internal/soc"
)

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (e2e, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return e2e, perLayer
}

func names(r *report) []string {
	var out []string
	for _, m := range r.metrics {
		out = append(out, m.name)
	}
	return out
}

// checkReport asserts the run passed its checks and emitted exactly the
// declared metrics.
func checkReport(t *testing.T, r *report, want []string) {
	t.Helper()
	if !r.correct() {
		t.Errorf("%s traced=%v: checks failed: %s", r.workload, r.traced, strings.Join(r.problems, "; "))
	}
	if r.attempted < 1 || r.failed != 0 {
		t.Errorf("%s traced=%v: attempted=%d failed=%d", r.workload, r.traced, r.attempted, r.failed)
	}
	got := names(r)
	sort.Strings(got)
	w := append([]string(nil), want...)
	sort.Strings(w)
	if strings.Join(got, ",") != strings.Join(w, ",") {
		t.Errorf("%s traced=%v: metrics\n got %v\nwant %v", r.workload, r.traced, got, w)
	}
}

// TestWorkloadsSmoke runs every workload at reduced size, untraced and
// traced.
func TestWorkloadsSmoke(t *testing.T) {
	e2e, perLayer := benchmarkMetrics(t)
	sweep := sweepConfig{socs: []string{"p93791"}, widths: []int{16, 32}, nr: []int{2000}, groupings: []int{1, 4}, reps: 1, setupReps: 3}
	job := jobConfig{soc: "p93791", wmax: 32, nr: 5000, parts: 4, reps: 2, setupReps: 3}
	daemon := daemonConfig{dir: t.TempDir(), warmup: 4, jobs: 6, nr: 5000, kicks: 2, setupReps: 1}
	for _, traced := range []bool{false, true} {
		want := e2e
		if traced {
			want = perLayer
		}
		r, err := runSweep(sweep, 1, traced)
		if err != nil {
			t.Fatal(err)
		}
		checkReport(t, r, want)
		if r, err = runJob(job, 1, traced); err != nil {
			t.Fatal(err)
		}
		checkReport(t, r, want)
		if r, err = runDaemon(daemon, 1, traced); err != nil {
			t.Fatal(err)
		}
		checkReport(t, r, want)
	}
	if left, err := os.ReadDir(daemon.dir); err != nil || len(left) != 0 {
		t.Errorf("daemon left %d entries behind (%v)", len(left), err)
	}
}

// TestGateRejectsTamperedSchedule shifts one slot of a valid schedule
// onto another slot that shares a rail with it: the gate must refuse.
func TestGateRejectsTamperedSchedule(t *testing.T) {
	s, err := soc.LoadBenchmark("p93791")
	if err != nil {
		t.Fatal(err)
	}
	cfg := jobConfig{soc: "p93791", wmax: 32, nr: 3000, parts: 4}
	o, err := runJobPipeline(context.Background(), cfg, s, 1, newPipeLayers(false))
	if err != nil {
		t.Fatal(err)
	}
	g := newGateStats()
	if err := g.check(o); err != nil {
		t.Fatalf("untampered result rejected: %v", err)
	}
	slots := o.sched.Slots
	for i := range slots {
		for j := range slots {
			if i == j || !shareRail(slots[i].Rails, slots[j].Rails) || slots[i].Time == 0 || slots[j].Time == 0 {
				continue
			}
			tampered := *o.sched
			tampered.Slots = append(tampered.Slots[:0:0], slots...)
			tampered.Slots[j].Begin = slots[i].Begin
			tampered.Slots[j].End = slots[i].Begin + slots[j].Time
			bad := o
			bad.sched = &tampered
			if err := g.check(bad); err == nil {
				t.Fatalf("gate accepted slot %d moved onto slot %d", j, i)
			}
			return
		}
	}
	t.Fatal("no two slots share a rail; pick another instance")
}

func shareRail(a, b []int) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// TestLedgerCatchesDrift records an exact count and then feeds it a
// different value for the same key.
func TestLedgerCatchesDrift(t *testing.T) {
	root := t.TempDir()
	first := &report{metrics: []metric{{name: "core.evals", value: 10, exact: true}}}
	first.checkLedger(root, "job/seed=1")
	again := &report{metrics: []metric{{name: "core.evals", value: 10, exact: true}}}
	again.checkLedger(root, "job/seed=1")
	drift := &report{metrics: []metric{{name: "core.evals", value: 11, exact: true}}}
	drift.checkLedger(root, "job/seed=1")
	if !first.correct() || !again.correct() || drift.correct() {
		t.Fatalf("ledger: first %v, repeat %v, drift %v; want true, true, false", first.problems, again.problems, drift.problems)
	}
}
