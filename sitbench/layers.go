package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sitam/internal/core"
	"sitam/internal/obs"
)

// clock accumulates the busy time and call count of one layer, timed
// from outside the program around calls into its public functions.
type clock struct {
	ns    int64
	calls int64
}

func (c *clock) since(t0 time.Time) {
	c.ns += int64(time.Since(t0))
	c.calls++
}

func (c *clock) seconds() float64 { return float64(c.ns) / 1e9 }

// spanSink is the obs.Sink handed to GroupingOptions.Trace in traced
// runs. It keeps only the summed duration of each phase's closed spans.
type spanSink struct {
	mu sync.Mutex
	ns map[string]int64
}

func newSpanSink() *spanSink {
	return &spanSink{ns: map[string]int64{}}
}

// Emit implements obs.Sink.
func (s *spanSink) Emit(ev obs.Event) {
	if ev.Type != obs.PhaseEnd {
		return
	}
	s.mu.Lock()
	s.ns[ev.Phase] += ev.DurNS
	s.mu.Unlock()
}

func (s *spanSink) seconds(phase string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return float64(s.ns[phase]) / 1e9
}

// enginePhases maps the engine's phase names to metric names.
var enginePhases = []struct{ phase, metric string }{
	{"start solution", "core.phase.start_solution_s"},
	{"bottom-up merge", "core.phase.bottom_up_merge_s"},
	{"top-down merge", "core.phase.top_down_merge_s"},
	{"remaining-rails sweep", "core.phase.remaining_rails_sweep_s"},
	{"core reshuffle", "core.phase.core_reshuffle_s"},
	{"ILS", "core.phase.ils_s"},
}

// pipeLayers is the per-layer account of the sweep and job workloads,
// which call sifault, core and trarchitect directly.
type pipeLayers struct {
	gen, grouping, baseline, opt clock

	// Traced runs only: grouping spans and the engine's phase-duration
	// histograms, read from the options the layers already take.
	spans  *spanSink
	engine *obs.Registry

	patterns              int64 // generated
	original, compacted   int64 // grouping input and output patterns
	cut                   int64 // patterns in residual groups
	evals                 int64
	hits, misses          int64
	railsMemo, railsRecmp int64
}

func newPipeLayers(traced bool) *pipeLayers {
	l := &pipeLayers{}
	if traced {
		l.spans = newSpanSink()
		l.engine = obs.NewRegistry()
	}
	return l
}

// sink returns the grouping trace sink, nil when untraced (a nil
// *spanSink must not become a non-nil obs.Sink).
func (l *pipeLayers) sink() obs.Sink {
	if l.spans == nil {
		return nil
	}
	return l.spans
}

// optConfig is the engine configuration of an SI-aware optimization:
// the socbench and tamopt defaults, plus the phase histograms when
// traced.
func (l *pipeLayers) optConfig() core.ParallelConfig {
	return core.ParallelConfig{Workers: 0, CacheSize: core.DefaultCacheSize, Metrics: l.engine}
}

// countResult adds one optimization's exact and cache counters.
func (l *pipeLayers) countResult(res *core.Result) {
	l.evals += res.Metrics.Counter("evals")
	l.hits += res.Cache.Hits
	l.misses += res.Cache.Misses
	l.railsMemo += res.Metrics.Counter("eval_rails_memoized")
	l.railsRecmp += res.Metrics.Counter("eval_rails_recomputed")
}

// countGrouping adds one grouping's exact counters.
func (l *pipeLayers) countGrouping(gr *core.GroupingResult) {
	l.original += gr.Stats.Original
	l.compacted += int64(gr.TotalCompacted())
	l.cut += gr.CutPatterns
}

// addMetrics reports the per-layer metrics of a traced run. wall is the
// traced pass's wall time, untracedWall the same work untraced.
func (l *pipeLayers) addMetrics(r *report, wall, untracedWall float64, g *gateStats) {
	partition := l.spans.seconds("partition")
	compact := l.spans.seconds("compaction")
	snap := l.engine.Snapshot()
	r.add(metric{name: "sifault.gen_s", unit: "s", value: l.gen.seconds(), n: int(l.gen.calls)})
	r.add(metric{name: "sifault.patterns", unit: "count", value: float64(l.patterns), n: int(l.gen.calls), exact: true})
	r.add(metric{name: "sifault.ns_per_pattern", unit: "ns", value: ratio(float64(l.gen.ns), float64(l.patterns)), n: int(l.gen.calls)})
	r.add(metric{name: "core.grouping_s", unit: "s", value: l.grouping.seconds(), n: int(l.grouping.calls)})
	r.add(metric{name: "core.grouping_calls", unit: "count", value: float64(l.grouping.calls), n: 1, exact: true})
	r.add(metric{name: "core.grouping_other_s", unit: "s", value: l.grouping.seconds() - partition - compact, n: int(l.grouping.calls),
		note: "grouping minus partition and compaction spans: care cores and hyperedge keys"})
	r.add(metric{name: "hypergraph.partition_s", unit: "s", value: partition, n: int(l.grouping.calls)})
	r.add(metric{name: "hypergraph.cut_share", unit: "ratio", value: ratio(float64(l.cut), float64(l.original)), n: int(l.grouping.calls), exact: true})
	r.add(metric{name: "compaction.compact_s", unit: "s", value: compact, n: int(l.grouping.calls)})
	r.add(metric{name: "compaction.ratio", unit: "ratio", value: ratio(float64(l.original), float64(l.compacted)), n: int(l.grouping.calls), exact: true})
	r.add(metric{name: "compaction.patterns_out", unit: "count", value: float64(l.compacted), n: int(l.grouping.calls), exact: true})
	r.add(metric{name: "core.opt_s", unit: "s", value: l.opt.seconds(), n: int(l.opt.calls)})
	r.add(metric{name: "core.opt_calls", unit: "count", value: float64(l.opt.calls), n: 1, exact: true})
	r.add(metric{name: "core.evals", unit: "count", value: float64(l.evals), n: int(l.opt.calls), exact: true})
	r.add(metric{name: "core.evals_per_s", unit: "1/s", value: ratio(float64(l.evals), l.opt.seconds()), n: int(l.opt.calls)})
	r.add(metric{name: "core.cache_hit_ratio", unit: "ratio", value: ratio(float64(l.hits), float64(l.hits+l.misses)), n: int(l.opt.calls),
		note: "not exact at workers > 1: concurrent candidates race for cache entries"})
	r.add(metric{name: "core.rails_memoized_ratio", unit: "ratio", value: ratio(float64(l.railsMemo), float64(l.railsMemo+l.railsRecmp)), n: int(l.opt.calls),
		note: "not exact at workers > 1"})
	for _, p := range enginePhases {
		h := snap.Histograms["phase_ns_"+strings.ReplaceAll(p.phase, " ", "_")]
		r.add(metric{name: p.metric, unit: "s", value: float64(h.Sum) / 1e9, n: int(h.Count)})
	}
	r.add(metric{name: "trarchitect.baseline_s", unit: "s", value: l.baseline.seconds(), n: int(l.baseline.calls)})
	g.addMetrics(r)
	addNotServed(r)
	busy := l.gen.seconds() + l.grouping.seconds() + l.baseline.seconds() + l.opt.seconds()
	addReconcile(r, wall, busy, layerTolerance)
	addOverhead(r, wall, untracedWall)
}

// addNotServed reports the daemon-only layers of a workload that runs
// without the scheduler and its cache file: 0, with a note saying so.
func addNotServed(r *report) {
	const note = "layer not exercised by this workload"
	for _, name := range []string{"serve.submit_ms_p50", "serve.submit_ms_p90", "serve.run_ms_mean", "serve.queue_wait_ms_mean"} {
		r.add(metric{name: name, unit: "ms", note: note})
	}
	r.add(metric{name: "serve.journal_bytes", unit: "bytes", note: note})
	r.add(metric{name: "serve.diverged_results", unit: "count", note: note})
	r.add(metric{name: "serve.worker_idle_s", unit: "s", note: note})
	r.add(metric{name: "core.cachefile.open_s", unit: "s", note: note})
	r.add(metric{name: "core.cachefile.bytes", unit: "bytes", note: note})
	r.add(metric{name: "core.cachefile.entries", unit: "count", note: note})
}

// addReconcile reports the wall time no layer covers and fails the run
// when it exceeds tol of wall.
func addReconcile(r *report, wall, busy, tol float64) {
	rest := wall - busy
	r.add(metric{name: "reconcile.unattributed_s", unit: "s", value: rest, n: 1,
		note: "wall_s minus the summed layer busy times"})
	r.add(metric{name: "reconcile.unattributed_share", unit: "ratio", value: ratio(rest, wall), n: 1,
		note: "tolerance " + strconv.FormatFloat(tol, 'f', 2, 64)})
	if math.Abs(rest) > tol*wall {
		r.fail("layers do not reconcile: %.3fs of %.3fs wall time unattributed (tolerance %.0f%%)", rest, wall, tol*100)
	}
}

func addOverhead(r *report, traced, untraced float64) {
	r.add(metric{name: "obs.trace_overhead_pct", unit: "%", value: 100 * (ratio(traced, untraced) - 1), n: 1,
		note: "traced wall_s over untraced wall_s, minus 1"})
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// median returns the middle value (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// geoRatio accumulates the geometric mean of T_soc over its lower
// bound.
type geoRatio struct {
	logSum float64
	n      int
}

func (g *geoRatio) add(tsoc, lb int64) {
	g.logSum += math.Log(float64(tsoc) / float64(lb))
	g.n++
}

func (g *geoRatio) value() float64 {
	if g.n == 0 {
		return 0
	}
	return math.Exp(g.logSum / float64(g.n))
}

// hostCPU returns the host's cumulative CPU time from /proc/stat, in
// clock ticks: the steal (time the hypervisor ran other guests on this
// VM's vCPUs) and the total.
func hostCPU() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealMeter measures the host's CPU steal share over a window: the
// timed windows of a run on a busy host read slow, and this says so.
type stealMeter struct{ steal, total int64 }

func startSteal() stealMeter {
	s, t := hostCPU()
	return stealMeter{s, t}
}

func (m stealMeter) share() float64 {
	s, t := hostCPU()
	return ratio(float64(s-m.steal), float64(t-m.total))
}

// On a shared VM the hypervisor steals CPU in bursts of about a minute
// that slow a timed window by a quarter or more. An untraced run whose
// window saw more than stealLimit of the host's CPU time stolen
// measures the window once more, up to maxWindows in all, and reports
// the window with the least steal.
const (
	stealLimit = 0.08
	maxWindows = 2
)

// quietest runs window, which measures one timed window and returns its
// steal share, until a window stays within stealLimit, maxWindows ran,
// or retry is false. It returns the steal shares and the index of the
// window with the least steal.
func quietest(retry bool, window func() (float64, error)) ([]float64, int, error) {
	var steals []float64
	best := 0
	for len(steals) < maxWindows {
		s, err := window()
		if err != nil {
			return nil, 0, err
		}
		steals = append(steals, s)
		if s < steals[best] {
			best = len(steals) - 1
		}
		if !retry || s <= stealLimit {
			break
		}
	}
	return steals, best, nil
}

// resetPeakRSS restarts the kernel's resident-set high-water mark, so
// peakRSSMB covers only what follows. Where the kernel refuses, the
// mark keeps covering the whole process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the resident-set high-water mark in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
