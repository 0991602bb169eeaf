package chaostest

import (
	"os"
	"testing"
	"time"
)

// chaosDuration honors CHAOS_DURATION (e.g. "30s" for the CI smoke
// run) and keeps the default short enough for the ordinary test suite.
func chaosDuration(t *testing.T) time.Duration {
	if v := os.Getenv("CHAOS_DURATION"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			t.Fatalf("CHAOS_DURATION=%q: %v", v, err)
		}
		return d
	}
	if testing.Short() {
		return 1 * time.Second
	}
	return 3 * time.Second
}

// TestChaos is the headline robustness gate: a seeded storm of hostile
// clients against a small-queue server, then the four invariants.
func TestChaos(t *testing.T) {
	res, err := Run(Options{
		Duration: chaosDuration(t),
		Clients:  8,
		Seed:     1,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("chaos: %d requests (%d admitted, %d shed) in %v; %d panics, %d disconnects, %d slow reads, %d bursts",
		res.Requests, res.Admitted, res.Shed, res.Duration.Round(time.Millisecond),
		res.Panics, res.Disconnects, res.SlowReads, res.Bursts)
	t.Logf("chaos: latency p50=%.1fms p95=%.1fms p99=%.1fms over %d samples",
		res.Latency.P50ms, res.Latency.P95ms, res.Latency.P99ms, res.Latency.Samples)

	for _, nt := range res.NonTerminal {
		t.Errorf("admitted job never reached a terminal state: %s", nt)
	}
	for _, dv := range res.DeterminismViolations {
		t.Errorf("identical requests diverged: %s", dv)
	}
	if res.MissingRetryAfter > 0 {
		t.Errorf("%d shed responses lacked a Retry-After header", res.MissingRetryAfter)
	}
	if res.LeakedGoroutines > 0 {
		t.Errorf("%d goroutines leaked past drain", res.LeakedGoroutines)
	}

	// A run that never exercised the hostile paths proves nothing.
	if res.Admitted == 0 {
		t.Error("chaos run admitted no jobs")
	}
	if res.Shed == 0 {
		t.Error("chaos run never saturated the queue — admission control untested")
	}
	if res.Panics == 0 {
		t.Error("chaos run injected no panics")
	}
	if res.Disconnects == 0 {
		t.Error("chaos run exercised no mid-stream disconnects")
	}
	if res.DupCompared == 0 {
		t.Error("chaos run never compared duplicate-request outcomes")
	}
}
