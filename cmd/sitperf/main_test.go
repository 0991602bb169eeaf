package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCompareFlagsInjectedRegression is the sentinel's core guarantee
// in unit form: a 2x slowdown over the baseline must come back as a
// regression, an unmodified run must not, and an entry inside the
// noise band must read ok.
func TestCompareFlagsInjectedRegression(t *testing.T) {
	s := suite{name: "unit", baseline: "BENCH_unit.json", thresholdScale: 1}
	base := map[string]float64{"BenchmarkA": 1000, "BenchmarkB": 500}

	sr := compareSuite(s, base, map[string][]float64{
		"BenchmarkA": {2100, 2000, 1950}, // 2x: regression
		"BenchmarkB": {520, 510, 540},    // within noise: ok
		"BenchmarkC": {10},               // no baseline: new
	}, 1.5)
	if sr.Regressions != 1 {
		t.Fatalf("regressions = %d, want 1: %+v", sr.Regressions, sr.Entries)
	}
	byName := map[string]entry{}
	for _, e := range sr.Entries {
		byName[e.Name] = e
	}
	if byName["BenchmarkA"].Status != "regression" || byName["BenchmarkA"].Ratio != 2.0 {
		t.Errorf("BenchmarkA: %+v", byName["BenchmarkA"])
	}
	if byName["BenchmarkB"].Status != "ok" {
		t.Errorf("BenchmarkB: %+v", byName["BenchmarkB"])
	}
	if byName["BenchmarkC"].Status != "new" {
		t.Errorf("BenchmarkC: %+v", byName["BenchmarkC"])
	}

	// The clean run: identical medians, zero regressions.
	clean := compareSuite(s, base, map[string][]float64{
		"BenchmarkA": {1000, 1000, 1000},
		"BenchmarkB": {500, 500, 500},
	}, 1.5)
	if clean.Regressions != 0 {
		t.Errorf("unmodified run flagged %d regressions", clean.Regressions)
	}

	// A large speedup is no regression, but it leaves the baseline
	// stale: it is counted so the run fails until it is re-recorded.
	fast := compareSuite(s, base, map[string][]float64{"BenchmarkA": {100, 100, 100}}, 1.5)
	if fast.Regressions != 0 || fast.Stale != 1 || fast.Entries[0].Status != "stale" {
		t.Errorf("stale-fast entry misclassified: %+v", fast)
	}
}

func TestRobustStats(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	// One wild outlier (the shared-VM scenario) barely moves the pair.
	samples := []float64{100, 102, 98, 101, 1000}
	if m := median(samples); m != 101 {
		t.Errorf("median with outlier = %v", m)
	}
	if d := mad(samples); d != 1 {
		t.Errorf("mad with outlier = %v", d)
	}
}

func TestParseBenchOutput(t *testing.T) {
	raw := `goos: linux
goarch: amd64
Benchmark_IncrementalEval/scratch-8         	       2	163917550 ns/op	220453648 B/op	  920930 allocs/op
Benchmark_IncrementalEval/scratch-8         	       2	165000000 ns/op
BenchmarkScheduleSITest-8                   	   20000	      4260 ns/op
Benchmark_Odd-8                             	       1	 100000.5 ns/op
PASS
`
	matches := benchLine.FindAllStringSubmatch(raw, -1)
	got := map[string][]string{}
	for _, m := range matches {
		got[m[1]] = append(got[m[1]], m[2])
	}
	if len(got["Benchmark_IncrementalEval/scratch"]) != 2 {
		t.Errorf("repetitions not grouped: %v", got)
	}
	if got["BenchmarkScheduleSITest"][0] != "4260" {
		t.Errorf("parse: %v", got)
	}
	if got["Benchmark_Odd"][0] != "100000.5" {
		t.Errorf("fractional ns/op: %v", got)
	}
}

func buildSitperf(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sitperf")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestSelftestAgainstCommittedBaselines runs `sitperf -selftest`
// against the real BENCH_*.json files: the comparator must pass the
// unmodified numbers and flag the injected slowdown in every suite.
func TestSelftestAgainstCommittedBaselines(t *testing.T) {
	bin := buildSitperf(t)
	out, err := exec.Command(bin, "-selftest", "-baselines", "../..").CombinedOutput()
	if err != nil {
		t.Fatalf("sitperf -selftest: %v\n%s", err, out)
	}
	for _, want := range []string{"selftest incremental: ok", "selftest parallel: ok", "selftest serve: ok", "selftest lint: ok"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("selftest output missing %q:\n%s", want, out)
		}
	}
}

// TestUpdateBaselinePreservesProse checks -update surgery: ns_per_op
// values move, the environment gains the host stamp, and the
// findings/environment prose and entries the run did not measure stay
// intact.
func TestUpdateBaselinePreservesProse(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_unit.json")
	src := `{
  "description": "unit fixture",
  "environment": {"note": "keep me"},
  "benchmarks": [
    {"name": "BenchmarkA", "iters": 2, "ns_per_op": 1000},
    {"name": "BenchmarkGuard", "iters": 2, "custom_ns": 42},
    {"name": "BenchmarkB", "iters": 2, "ns_per_op": 500}
  ],
  "findings": ["keep this sentence", "keep <= & > as written"]
}
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	s := suite{name: "unit", baseline: "BENCH_unit.json", thresholdScale: 1}
	err := updateBaseline(path, s, map[string][]float64{
		"BenchmarkA":     {2000, 2100, 1900},
		"BenchmarkGuard": {7, 7, 7}, // no ns_per_op in the entry: untouched
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc["findings"].([]any)[0] != "keep this sentence" {
		t.Error("findings prose lost")
	}
	if !bytes.Contains(b, []byte(`"keep <= & > as written"`)) {
		t.Error("prose rewritten with HTML escapes")
	}
	env := doc["environment"].(map[string]any)
	if env["note"] != "keep me" {
		t.Error("environment prose lost")
	}
	for _, k := range []string{"nproc", "gomaxprocs", "go"} {
		if _, ok := env[k]; !ok {
			t.Errorf("environment not stamped with %s: %v", k, env)
		}
	}
	byName := map[string]map[string]any{}
	for _, item := range doc["benchmarks"].([]any) {
		m := item.(map[string]any)
		byName[m["name"].(string)] = m
	}
	if byName["BenchmarkA"]["ns_per_op"].(float64) != 2000 {
		t.Errorf("BenchmarkA not updated to the median: %v", byName["BenchmarkA"])
	}
	if byName["BenchmarkB"]["ns_per_op"].(float64) != 500 {
		t.Errorf("unmeasured BenchmarkB changed: %v", byName["BenchmarkB"])
	}
	if _, has := byName["BenchmarkGuard"]["ns_per_op"]; has {
		t.Errorf("guard entry grew an ns_per_op: %v", byName["BenchmarkGuard"])
	}

	// The rewritten file still loads as a baseline.
	base, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if base["BenchmarkA"] != 2000 || len(base) != 2 {
		t.Errorf("reloaded baseline: %v", base)
	}
}
