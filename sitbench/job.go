package main

import (
	"context"
	"fmt"
	"time"

	"sitam/internal/core"
	"sitam/internal/sifault"
	"sitam/internal/sischedule"
	"sitam/internal/soc"
)

// jobConfig sizes the job workload: the tamopt pipeline on one SOC,
// repeated with seeds seed, seed+1, ...
type jobConfig struct {
	soc             string
	wmax, nr, parts int
	reps            int
	setupReps       int
}

// jobSeconds is the length of one job on the 2-vCPU machine the
// benchmark was sized on.
const jobSeconds = 2

// tamoptTSOC is what `tamopt -soc p93791 -w 64 -nr 100000 -g 4`
// prints for seed 1.
const tamoptTSOC = 897826

// tamoptReference reports whether cfg is the job tamoptTSOC was
// recorded for.
func (c jobConfig) tamoptReference() bool {
	return c.soc == "p93791" && c.wmax == 64 && c.nr == 100000 && c.parts == 4
}

func defaultJob(seconds int) jobConfig {
	return jobConfig{soc: "p93791", wmax: 64, nr: 100000, parts: 4, reps: max(2, seconds/jobSeconds), setupReps: 51}
}

// endToEnd holds what an untraced run measured.
type endToEnd struct {
	setup     float64 // median of setupN set-ups
	setupN    int
	walls     []float64 // seconds per timed window
	latencies []float64 // milliseconds per operation
	quality   geoRatio
	rss       float64 // MiB, resident-set high-water mark of the window

	// qualityExact marks tsoc_lb_ratio as repeating exactly per seed.
	qualityExact bool
}

// addEndToEnd reports the end-to-end metrics every workload shares.
func addEndToEnd(r *report, e endToEnd) {
	r.add(metric{name: "setup_s", unit: "s", value: e.setup, n: e.setupN})
	r.add(metric{name: "wall_s", unit: "s", value: median(e.walls), n: len(e.walls)})
	r.add(metric{name: "latency_p50_ms", unit: "ms", value: median(e.latencies), n: len(e.latencies)})
	r.add(metric{name: "latency_p90_ms", unit: "ms", value: percentile(e.latencies, 0.9), n: len(e.latencies)})
	r.add(metric{name: "ok_frac", unit: "ratio", value: 1 - ratio(float64(r.failed), float64(r.attempted)), n: int(r.attempted),
		note: "1 - failed_frac"})
	r.add(metric{name: "tsoc_lb_ratio", unit: "ratio", value: e.quality.value(), n: e.quality.n, exact: e.qualityExact})
	r.add(metric{name: "peak_rss_mb", unit: "MiB", value: e.rss, n: 1})
}

// runJobPipeline is one tamopt run: generate, group, optimize, each
// layer timed into l.
func runJobPipeline(ctx context.Context, cfg jobConfig, s *soc.SOC, seed int64, l *pipeLayers) (outcome, error) {
	t0 := time.Now()
	patterns, cut, err := sifault.GenerateCtx(ctx, s, sifault.GenConfig{N: cfg.nr, Seed: seed})
	l.gen.since(t0)
	if err != nil {
		return outcome{}, err
	}
	if cut {
		return outcome{}, fmt.Errorf("seed %d: generation cut short", seed)
	}
	l.patterns += int64(len(patterns))
	t0 = time.Now()
	gr, err := core.BuildGroupsCtx(ctx, s, patterns, core.GroupingOptions{Parts: cfg.parts, Seed: seed, Trace: l.sink()})
	l.grouping.since(t0)
	if err != nil {
		return outcome{}, err
	}
	l.countGrouping(gr)
	t0 = time.Now()
	res, err := core.TAMOptimizationWith(ctx, s, cfg.wmax, gr.Groups, sischedule.DefaultModel(), l.optConfig())
	l.opt.since(t0)
	if err != nil {
		return outcome{}, err
	}
	l.countResult(res)
	o := outcome{
		label: fmt.Sprintf("%s W=%d Nr=%d g=%d seed=%d", s.Name, cfg.wmax, cfg.nr, cfg.parts, seed),
		soc:   s, wmax: cfg.wmax, arch: res.Architecture, groups: gr.Groups, sched: res.Schedule, bd: res.Breakdown,
	}
	if res.Partial || gr.Partial {
		return o, fmt.Errorf("%s: partial result", o.label)
	}
	return o, nil
}

// jobWindow is one timed window of the job workload.
type jobWindow struct {
	lat   []float64
	wall  float64
	outs  []outcome
	rss   float64
	steal float64
}

// jobPass runs the repetitions once and returns the per-job latencies
// in milliseconds, the pass's wall time and the outcomes.
func jobPass(ctx context.Context, cfg jobConfig, s *soc.SOC, seed int64, l *pipeLayers, rep *report) ([]float64, float64, []outcome, error) {
	var lat []float64
	var outs []outcome
	start := time.Now()
	for i := 0; i < cfg.reps; i++ {
		t0 := time.Now()
		o, err := runJobPipeline(ctx, cfg, s, seed+int64(i), l)
		lat = append(lat, ms(time.Since(t0)))
		rep.attempted++
		if err != nil {
			if o.arch == nil {
				return nil, 0, nil, err
			}
			rep.failed++
			rep.fail("%v", err)
		}
		outs = append(outs, o)
	}
	return lat, time.Since(start).Seconds(), outs, nil
}

func runJob(cfg jobConfig, seed int64, traced bool) (*report, error) {
	ctx := context.Background()
	rep := &report{workload: "job", traced: traced}
	setup, socs, err := setupSeconds([]string{cfg.soc}, cfg.setupReps)
	if err != nil {
		return nil, err
	}
	s := socs[0]

	var wins []jobWindow
	rep.steals, rep.chosen, err = quietest(!traced, func() (float64, error) {
		var w jobWindow
		resetPeakRSS()
		steal := startSteal()
		var err error
		w.lat, w.wall, w.outs, err = jobPass(ctx, cfg, s, seed, newPipeLayers(false), rep)
		w.rss, w.steal = peakRSSMB(), steal.share()
		wins = append(wins, w)
		return w.steal, err
	})
	if err != nil {
		return nil, err
	}
	win := wins[rep.chosen]
	outs := win.outs

	var layers *pipeLayers
	var tracedWall float64
	if traced {
		// A second pass over the same seeds with the layer spans on.
		layers = newPipeLayers(true)
		var touts []outcome
		_, tracedWall, touts, err = jobPass(ctx, cfg, s, seed, layers, rep)
		if err != nil {
			return nil, err
		}
		for i := range outs {
			if touts[i].bd != outs[i].bd {
				rep.fail("%s: traced pass gave %+v, untraced %+v", outs[i].label, touts[i].bd, outs[i].bd)
			}
		}
	}

	gs := newGateStats()
	for _, w := range wins {
		for _, o := range w.outs {
			if err := gs.check(o); err != nil {
				rep.failed++
				rep.fail("%v", err)
			}
		}
	}
	var quality geoRatio
	for i, o := range outs {
		lb, err := gs.lowerBound(s, cfg.wmax)
		if err != nil {
			return nil, err
		}
		quality.add(o.bd.TimeSOC, lb)
		if seed+int64(i) == 1 && cfg.tamoptReference() && o.bd.TimeSOC != tamoptTSOC {
			rep.fail("seed 1: T_soc %d, tamopt gives %d", o.bd.TimeSOC, tamoptTSOC)
		}
	}

	if traced {
		layers.addMetrics(rep, tracedWall, win.wall, gs)
		return rep, nil
	}
	addEndToEnd(rep, endToEnd{setup: setup, setupN: cfg.setupReps, walls: []float64{win.wall}, latencies: win.lat, quality: quality, rss: win.rss, qualityExact: true})
	return rep, nil
}
