package main

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"sitam/internal/core"
	"sitam/internal/experiments"
	"sitam/internal/sifault"
	"sitam/internal/sischedule"
	"sitam/internal/soc"
	"sitam/internal/trarchitect"
)

// sweepConfig sizes the sweep workload: the paper's Table 2/3 sweep
// over socs. Nil slices take the experiments.TableConfig defaults
// (Nr {10k, 100k}, W = 8..64, g {1, 2, 4, 8}).
type sweepConfig struct {
	socs                  []string
	widths, nr, groupings []int
	reps                  int // full sweeps in the timed window
	setupReps             int
}

// sweepSeconds is the length of one full sweep on the 2-vCPU machine
// the benchmark was sized on; -seconds buys that many sweeps.
const sweepSeconds = 15

func defaultSweep(seconds int) sweepConfig {
	return sweepConfig{
		socs:      []string{"p34392", "p93791"},
		reps:      max(1, (seconds+sweepSeconds/2)/sweepSeconds),
		setupReps: 51,
	}
}

func (c sweepConfig) table(seed int64, progress io.Writer) experiments.TableConfig {
	return experiments.TableConfig{
		Widths: c.widths, Nr: c.nr, Groupings: c.groupings,
		Seed: seed, Progress: progress,
		Parallel: core.ParallelConfig{Workers: 0, CacheSize: core.DefaultCacheSize},
	}
}

// progressClock timestamps RunTableCtx's per-optimization progress
// lines: the interval between two T_soc results is the latency a user
// watching the sweep sees. RunTableCtx writes from the calling
// goroutine only.
type progressClock struct {
	last time.Time
	gaps []float64
}

func (p *progressClock) Write(b []byte) (int, error) {
	if strings.Contains(string(b), "T_soc=") {
		now := time.Now()
		p.gaps = append(p.gaps, ms(now.Sub(p.last)))
		p.last = now
	}
	return len(b), nil
}

// loadSOCs loads the named embedded SOCs.
func loadSOCs(names []string) ([]*soc.SOC, error) {
	out := make([]*soc.SOC, len(names))
	for i, name := range names {
		s, err := soc.LoadBenchmark(name)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// setupSeconds loads the SOCs reps times and returns the median load
// time and the SOCs of the last load.
func setupSeconds(names []string, reps int) (float64, []*soc.SOC, error) {
	var times []float64
	var socs []*soc.SOC
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		s, err := loadSOCs(names)
		if err != nil {
			return 0, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		socs = s
	}
	return median(times), socs, nil
}

func runSweep(cfg sweepConfig, seed int64, traced bool) (*report, error) {
	ctx := context.Background()
	rep := &report{workload: "sweep", traced: traced}
	setup, socs, err := setupSeconds(cfg.socs, cfg.setupReps)
	if err != nil {
		return nil, err
	}

	// Timed window: the whole sweep through experiments.RunTableCtx.
	var wins []sweepWindow
	rep.steals, rep.chosen, err = quietest(!traced, func() (float64, error) {
		w, err := timeSweep(ctx, cfg, socs, seed)
		wins = append(wins, w)
		return w.steal, err
	})
	if err != nil {
		return nil, err
	}
	win := wins[rep.chosen]
	tables := win.tables

	// The same sweep layer by layer, traced or not: it yields the
	// architectures the gate checks, and its cells must equal the
	// tables'.
	layers := newPipeLayers(traced)
	t0 := time.Now()
	replay, outs, err := replaySweep(ctx, cfg, socs, seed, layers)
	if err != nil {
		return nil, err
	}
	replayWall := time.Since(t0).Seconds()

	gs := newGateStats()
	var quality geoRatio
	for i, tbl := range tables {
		if tbl.Partial {
			rep.failed++
			rep.fail("%s: table partial: %s", tbl.SOC, tbl.Reason)
		}
		if err := sameCells(tbl.Cells, replay[i]); err != nil {
			rep.fail("%s: layer-by-layer replay differs from RunTableCtx: %v", tbl.SOC, err)
		}
		for _, c := range tbl.Cells {
			lb, err := gs.lowerBound(socs[i], c.Wmax)
			if err != nil {
				return nil, err
			}
			quality.add(c.T8, lb)
			for _, t := range c.Tg {
				quality.add(t, lb)
			}
		}
	}
	rep.attempted += int64(len(outs))
	for _, o := range outs {
		if err := gs.check(o); err != nil {
			rep.failed++
			rep.fail("%v", err)
		}
	}

	if traced {
		layers.addMetrics(rep, replayWall, median(win.walls), gs)
		return rep, nil
	}
	addEndToEnd(rep, endToEnd{
		setup: setup, setupN: cfg.setupReps, walls: win.walls, latencies: win.gaps, quality: quality, rss: win.rss, qualityExact: true,
	})
	return rep, nil
}

// sweepWindow is one timed window of the sweep workload.
type sweepWindow struct {
	walls  []float64 // seconds per sweep
	gaps   []float64 // milliseconds between T_soc results
	tables []*experiments.Table
	rss    float64
	steal  float64
}

func timeSweep(ctx context.Context, cfg sweepConfig, socs []*soc.SOC, seed int64) (sweepWindow, error) {
	var w sweepWindow
	resetPeakRSS()
	steal := startSteal()
	pc := &progressClock{}
	for i := 0; i < cfg.reps; i++ {
		w.tables = w.tables[:0]
		t0 := time.Now()
		pc.last = t0
		for _, s := range socs {
			tbl, err := experiments.RunTableCtx(ctx, s, cfg.table(seed, pc))
			if err != nil {
				return w, err
			}
			w.tables = append(w.tables, tbl)
		}
		w.walls = append(w.walls, time.Since(t0).Seconds())
	}
	w.gaps, w.rss, w.steal = pc.gaps, peakRSSMB(), steal.share()
	return w, nil
}

// replaySweep computes what RunTableCtx computes, calling each layer
// directly and timing it into l. It returns the cells per SOC and every
// architecture with its schedule for the gate: the SI-oblivious
// baseline under each grouping and each SI-aware optimum.
func replaySweep(ctx context.Context, cfg sweepConfig, socs []*soc.SOC, seed int64, l *pipeLayers) ([][]experiments.Cell, []outcome, error) {
	tc := cfg.table(seed, nil)
	widths, nrs, gs := tc.Widths, tc.Nr, tc.Groupings
	if widths == nil {
		widths = []int{8, 16, 24, 32, 40, 48, 56, 64}
	}
	if nrs == nil {
		nrs = []int{10000, 100000}
	}
	if gs == nil {
		gs = []int{1, 2, 4, 8}
	}
	model := sischedule.DefaultModel()
	var cells [][]experiments.Cell
	var outs []outcome
	for _, s := range socs {
		var sc []experiments.Cell
		for _, nr := range nrs {
			t0 := time.Now()
			patterns, cut, err := sifault.GenerateCtx(ctx, s, sifault.GenConfig{N: nr, Seed: seed + int64(nr)})
			l.gen.since(t0)
			if err != nil {
				return nil, nil, err
			}
			if cut {
				return nil, nil, fmt.Errorf("%s: generation cut short", s.Name)
			}
			l.patterns += int64(len(patterns))
			groups := make([][]*sischedule.Group, len(gs))
			for i, g := range gs {
				t0 := time.Now()
				gr, err := core.BuildGroupsCtx(ctx, s, patterns, core.GroupingOptions{Parts: g, Seed: seed, Trace: l.sink()})
				l.grouping.since(t0)
				if err != nil {
					return nil, nil, err
				}
				l.countGrouping(gr)
				groups[i] = gr.Groups
			}
			for _, w := range widths {
				cell := experiments.Cell{Wmax: w, Nr: nr}
				t0 := time.Now()
				arch, _, st, err := trarchitect.OptimizeWithCtx(ctx, s, w, core.ParallelConfig{Workers: 0, CacheSize: core.DefaultCacheSize})
				if err != nil {
					return nil, nil, err
				}
				if st.Partial {
					return nil, nil, fmt.Errorf("%s W=%d: baseline partial: %s", s.Name, w, st.Reason)
				}
				for i, g := range gs {
					bd, sched, err := core.EvaluateBreakdown(arch, groups[i], model)
					if err != nil {
						return nil, nil, err
					}
					if cell.T8 == 0 || bd.TimeSOC < cell.T8 {
						cell.T8, cell.InTest8 = bd.TimeSOC, bd.TimeIn
					}
					outs = append(outs, outcome{
						label: fmt.Sprintf("%s Nr=%d W=%d g=%d baseline", s.Name, nr, w, g),
						soc:   s, wmax: w, arch: arch, groups: groups[i], sched: sched, bd: bd,
					})
				}
				l.baseline.since(t0)
				for i, g := range gs {
					t0 := time.Now()
					res, err := core.TAMOptimizationWith(ctx, s, w, groups[i], model, l.optConfig())
					l.opt.since(t0)
					if err != nil {
						return nil, nil, err
					}
					if res.Partial {
						return nil, nil, fmt.Errorf("%s W=%d g=%d: optimization partial: %s", s.Name, w, g, res.Reason)
					}
					l.countResult(res)
					cell.Tg = append(cell.Tg, res.Breakdown.TimeSOC)
					if cell.Tmin == 0 || res.Breakdown.TimeSOC < cell.Tmin {
						cell.Tmin, cell.InTestMin = res.Breakdown.TimeSOC, res.Breakdown.TimeIn
					}
					outs = append(outs, outcome{
						label: fmt.Sprintf("%s Nr=%d W=%d g=%d", s.Name, nr, w, g),
						soc:   s, wmax: w, arch: res.Architecture, groups: groups[i], sched: res.Schedule, bd: res.Breakdown,
					})
				}
				sc = append(sc, cell)
			}
		}
		cells = append(cells, sc)
	}
	return cells, outs, nil
}

// sameCells compares two cell lists field by field.
func sameCells(a, b []experiments.Cell) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d cells vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		same := x.Wmax == y.Wmax && x.Nr == y.Nr && x.T8 == y.T8 && x.Tmin == y.Tmin &&
			x.InTest8 == y.InTest8 && x.InTestMin == y.InTestMin && len(x.Tg) == len(y.Tg)
		for j := 0; same && j < len(x.Tg); j++ {
			same = x.Tg[j] == y.Tg[j]
		}
		if !same {
			return fmt.Errorf("cell Nr=%d W=%d: %+v vs %+v", x.Nr, x.Wmax, x, y)
		}
	}
	return nil
}
