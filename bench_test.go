package sitam

// Benchmarks regenerating the paper's evaluation artifacts, one per
// table and figure, plus micro-benchmarks of every subsystem and the
// ablation benches DESIGN.md calls out.
//
// The table benches run a reduced sweep per iteration (smaller N_r and
// fewer widths than the paper) so `go test -bench=.` stays laptop-
// friendly; the full-scale sweep is the cmd/socbench binary, whose
// output is recorded in EXPERIMENTS.md. Shape metrics (the paper's
// ΔT_[8] and ΔT_g, in percent) are attached to the bench results via
// b.ReportMetric.

import (
	"context"
	"testing"

	"sitam/internal/compaction"
	"sitam/internal/core"
	"sitam/internal/experiments"
	"sitam/internal/hypergraph"
	"sitam/internal/sifault"
	"sitam/internal/sischedule"
	"sitam/internal/soc"
	"sitam/internal/tam"
	"sitam/internal/topology"
	"sitam/internal/trarchitect"
	"sitam/internal/wrapper"
)

// benchTable runs a reduced Tables 2/3 sweep for one SOC.
func benchTable(b *testing.B, name string) {
	s := soc.MustLoadBenchmark(name)
	cfg := experiments.TableConfig{
		Widths:    []int{8, 32, 64},
		Nr:        []int{5000},
		Groupings: []int{1, 4},
		Seed:      1,
	}
	var lastD8, lastDg float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.RunTableCtx(context.Background(), s, cfg)
		if err != nil {
			b.Fatal(err)
		}
		last := tbl.Cells[len(tbl.Cells)-1]
		lastD8, lastDg = last.DeltaT8(), last.DeltaTg()
	}
	b.ReportMetric(lastD8, "ΔT8_W64_%")
	b.ReportMetric(lastDg, "ΔTg_W64_%")
}

// BenchmarkTable2P34392 regenerates (at reduced scale) the paper's
// Table 2: p34392 overall test time, baseline vs SI-aware.
func BenchmarkTable2P34392(b *testing.B) { benchTable(b, "p34392") }

// BenchmarkTable3P93791 regenerates (at reduced scale) the paper's
// Table 3: p93791 overall test time, baseline vs SI-aware.
func BenchmarkTable3P93791(b *testing.B) { benchTable(b, "p93791") }

// BenchmarkFig3Schedule exercises Example 1 / Fig. 3: computing the SI
// test times and the Algorithm 1 schedule for the five-core SOC under
// the two TAM designs of the figure.
func BenchmarkFig3Schedule(b *testing.B) {
	s := &soc.SOC{Name: "fig3", BusWidth: 8}
	for id := 1; id <= 5; id++ {
		s.CoreList = append(s.CoreList, &soc.Core{
			ID: id, Inputs: 2, Outputs: 8, ScanChains: []int{5}, Patterns: 10,
		})
	}
	tt, err := wrapper.NewTimeTable(s, 8)
	if err != nil {
		b.Fatal(err)
	}
	groups := []*sischedule.Group{
		{Name: "SI1", Cores: []int{1, 2, 3, 4, 5}, Patterns: 10},
		{Name: "SI2", Cores: []int{1, 4, 5}, Patterns: 20},
		{Name: "SI3", Cores: []int{2, 3}, Patterns: 5},
	}
	aA := tam.New(s, tt)
	aA.AddRail([]int{1, 2}, 2)
	aA.AddRail([]int{3, 4}, 2)
	aA.AddRail([]int{5}, 2)
	aB := tam.New(s, tt)
	aB.AddRail([]int{1, 4, 5}, 2)
	aB.AddRail([]int{2, 3}, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range []*tam.Architecture{aA, aB} {
			if _, err := sischedule.ScheduleSITest(a, groups, sischedule.Model{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig2Partition exercises the Fig. 2 workload: partitioning
// the care-core hypergraph of a real pattern set into 4 parts.
func BenchmarkFig2Partition(b *testing.B) {
	s := soc.MustLoadBenchmark("p93791")
	patterns, _, err := sifault.GenerateCtx(context.Background(), s, sifault.GenConfig{N: 20000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sp := sifault.NewSpace(s)
	weights := make([]int64, s.NumCores())
	for i, c := range s.Cores() {
		weights[i] = int64(c.WOC())
	}
	h := hypergraph.New(weights)
	var pins []int
	for _, p := range patterns {
		pins = sp.AppendCareBlocks(pins[:0], p)
		if err := h.AddEdge(pins, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := hypergraph.PartitionK(context.Background(), h, 4, hypergraph.Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMotivationMASet regenerates the Section 2 estimate
// constructively: the 640-net topology and its 6N-pattern MA test set.
func BenchmarkMotivationMASet(b *testing.B) {
	s := &soc.SOC{Name: "bus10", BusWidth: 32}
	for id := 1; id <= 10; id++ {
		s.CoreList = append(s.CoreList, &soc.Core{
			ID: id, Inputs: 100, Outputs: 100, ScanChains: []int{50}, Patterns: 10,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topo, err := topology.Random(s, topology.RandomConfig{FanOut: 2, Width: 32, BusFraction: 0.5}, 1)
		if err != nil {
			b.Fatal(err)
		}
		ma, err := topology.MAPatterns(topo, 3)
		if err != nil {
			b.Fatal(err)
		}
		if len(ma) != 3840 {
			b.Fatalf("MA set = %d, want 3840", len(ma))
		}
	}
}

// --- Subsystem micro-benchmarks ---

func BenchmarkPatternGeneration(b *testing.B) {
	s := soc.MustLoadBenchmark("p93791")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sifault.GenerateCtx(context.Background(), s, sifault.GenConfig{N: 10000, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyCompaction10k(b *testing.B) {
	s := soc.MustLoadBenchmark("p93791")
	patterns, _, err := sifault.GenerateCtx(context.Background(), s, sifault.GenConfig{N: 10000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sp := sifault.NewSpace(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compaction.Greedy(context.Background(), sp, patterns, nil, "")
	}
}

func BenchmarkWrapperCombine(b *testing.B) {
	s := soc.MustLoadBenchmark("p93791")
	cores := s.Cores()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cores[i%len(cores)]
		if _, err := wrapper.Combine(c, 1+i%32); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTRArchitectP93791W32(b *testing.B) {
	s := soc.MustLoadBenchmark("p93791")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := trarchitect.OptimizeWithCtx(context.Background(), s, 32, serialCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTAMOptimizationP93791W32(b *testing.B) {
	s := soc.MustLoadBenchmark("p93791")
	patterns, _, err := sifault.GenerateCtx(context.Background(), s, sifault.GenConfig{N: 10000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	gr, err := core.BuildGroupsCtx(context.Background(), s, patterns, core.GroupingOptions{Parts: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.TAMOptimizationWith(context.Background(), s, 32, gr.Groups, sischedule.DefaultModel(), serialCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduleSITest(b *testing.B) {
	s := soc.MustLoadBenchmark("p93791")
	patterns, _, err := sifault.GenerateCtx(context.Background(), s, sifault.GenConfig{N: 10000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	gr, err := core.BuildGroupsCtx(context.Background(), s, patterns, core.GroupingOptions{Parts: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	arch, _, _, err := trarchitect.OptimizeWithCtx(context.Background(), s, 32, serialCfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sischedule.ScheduleSITest(arch, gr.Groups, sischedule.DefaultModel()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (design choices from DESIGN.md) ---

// Benchmark_AblationCover compares the paper's greedy clique-cover
// heuristic with the DSATUR reference on the same pattern set; the
// reported metric is the compacted pattern count.
func Benchmark_AblationCover(b *testing.B) {
	s := soc.MustLoadBenchmark("p34392")
	patterns, _, err := sifault.GenerateCtx(context.Background(), s, sifault.GenConfig{N: 1500, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sp := sifault.NewSpace(s)
	b.Run("greedy", func(b *testing.B) {
		var compacted int
		for i := 0; i < b.N; i++ {
			_, stats, _ := compaction.Greedy(context.Background(), sp, patterns, nil, "")
			compacted = stats.Compacted
		}
		b.ReportMetric(float64(compacted), "patterns")
	})
	b.Run("dsatur", func(b *testing.B) {
		var compacted int
		for i := 0; i < b.N; i++ {
			_, stats, err := compaction.DSATUR(patterns)
			if err != nil {
				b.Fatal(err)
			}
			compacted = stats.Compacted
		}
		b.ReportMetric(float64(compacted), "patterns")
	})
}

// Benchmark_AblationGrouping sweeps the grouping count g, reporting the
// resulting T_soc at W=32 — the trade-off behind the T_g_i columns.
func Benchmark_AblationGrouping(b *testing.B) {
	s := soc.MustLoadBenchmark("p34392")
	patterns, _, err := sifault.GenerateCtx(context.Background(), s, sifault.GenConfig{N: 20000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, g := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "g1", 2: "g2", 4: "g4", 8: "g8"}[g], func(b *testing.B) {
			var tsoc int64
			for i := 0; i < b.N; i++ {
				gr, err := core.BuildGroupsCtx(context.Background(), s, patterns, core.GroupingOptions{Parts: g, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				res, err := core.TAMOptimizationWith(context.Background(), s, 32, gr.Groups, sischedule.DefaultModel(), serialCfg)
				if err != nil {
					b.Fatal(err)
				}
				tsoc = res.Breakdown.TimeSOC
			}
			b.ReportMetric(float64(tsoc), "T_soc_cc")
		})
	}
}

// Benchmark_AblationILS measures what iterated local search buys over
// the paper's greedy fixed point (extension; see internal/core/ils.go).
func Benchmark_AblationILS(b *testing.B) {
	s := soc.MustLoadBenchmark("p34392")
	patterns, _, err := sifault.GenerateCtx(context.Background(), s, sifault.GenConfig{N: 10000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	gr, err := core.BuildGroupsCtx(context.Background(), s, patterns, core.GroupingOptions{Parts: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, kicks := range []int{0, 10} {
		name := "greedy"
		if kicks > 0 {
			name = "ils10"
		}
		b.Run(name, func(b *testing.B) {
			var obj int64
			for i := 0; i < b.N; i++ {
				eng, err := core.NewEngine(s, 32, &core.SIEvaluator{Groups: gr.Groups, Model: sischedule.DefaultModel()})
				if err != nil {
					b.Fatal(err)
				}
				_, obj, _, err = eng.OptimizeILSRestartsCtx(context.Background(), kicks, 1, 1)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(obj), "T_soc_cc")
		})
	}
}

// Benchmark_AblationSchedulingOverlap compares Algorithm 1's
// concurrent schedule against serial group application.
func Benchmark_AblationSchedulingOverlap(b *testing.B) {
	s := soc.MustLoadBenchmark("p93791")
	patterns, _, err := sifault.GenerateCtx(context.Background(), s, sifault.GenConfig{N: 20000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	gr, err := core.BuildGroupsCtx(context.Background(), s, patterns, core.GroupingOptions{Parts: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	arch, _, _, err := trarchitect.OptimizeWithCtx(context.Background(), s, 32, serialCfg)
	if err != nil {
		b.Fatal(err)
	}
	var overlap, serial int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched, err := sischedule.ScheduleSITest(arch, gr.Groups, sischedule.DefaultModel())
		if err != nil {
			b.Fatal(err)
		}
		overlap = sched.TotalSI
		serial, err = sischedule.SerialTime(arch, gr.Groups, sischedule.DefaultModel())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(overlap), "T_si_overlap_cc")
	b.ReportMetric(float64(serial), "T_si_serial_cc")
}
