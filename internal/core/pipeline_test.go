package core

import (
	"context"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"sitam/internal/obs"
	"sitam/internal/sifault"
	"sitam/internal/soc"
)

func TestBuildGroupsValidation(t *testing.T) {
	s := smallSOC()
	patterns, _, err := sifault.GenerateCtx(context.Background(), s, sifault.GenConfig{N: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildGroupsCtx(context.Background(), s, patterns, GroupingOptions{Parts: 0}); err == nil {
		t.Error("accepted Parts=0")
	}
	if _, err := BuildGroupsCtx(context.Background(), s, patterns, GroupingOptions{Parts: 99}); err == nil {
		t.Error("accepted Parts > core count")
	}
}

func TestBuildGroupsSinglePart(t *testing.T) {
	s := smallSOC()
	patterns, _, err := sifault.GenerateCtx(context.Background(), s, sifault.GenConfig{N: 500, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := BuildGroupsCtx(context.Background(), s, patterns, GroupingOptions{Parts: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(gr.Groups) != 1 {
		t.Fatalf("g=1 produced %d groups", len(gr.Groups))
	}
	if gr.CutPatterns != 0 {
		t.Errorf("g=1 has %d residual patterns", gr.CutPatterns)
	}
	if gr.Stats.Original != 500 {
		t.Errorf("Original = %d", gr.Stats.Original)
	}
	if gr.Groups[0].Patterns != int64(len(gr.GroupPatterns[0])) {
		t.Errorf("group pattern count %d != %d", gr.Groups[0].Patterns, len(gr.GroupPatterns[0]))
	}
}

func TestBuildGroupsPartitionInvariants(t *testing.T) {
	s := soc.MustLoadBenchmark("p34392")
	sp := sifault.NewSpace(s)
	patterns, _, err := sifault.GenerateCtx(context.Background(), s, sifault.GenConfig{N: 3000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{2, 4, 8} {
		gr, err := BuildGroupsCtx(context.Background(), s, patterns, GroupingOptions{Parts: parts, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		// Every core assigned to exactly one part in range.
		if len(gr.PartOf) != s.NumCores() {
			t.Fatalf("parts=%d: PartOf covers %d cores", parts, len(gr.PartOf))
		}
		for id, p := range gr.PartOf {
			if p < 0 || p >= parts {
				t.Fatalf("parts=%d: core %d in part %d", parts, id, p)
			}
		}
		// Weight conservation across all groups.
		var weight int64
		for _, ps := range gr.GroupPatterns {
			for _, p := range ps {
				weight += int64(p.Weight)
				if err := p.Validate(sp); err != nil {
					t.Fatalf("parts=%d: %v", parts, err)
				}
			}
		}
		if weight != 3000 {
			t.Errorf("parts=%d: weight %d != 3000", parts, weight)
		}
		// Non-residual groups stay within one part; their care cores
		// are a subset of the group's declared cores.
		for gi, g := range gr.Groups {
			declared := map[int]bool{}
			for _, id := range g.Cores {
				declared[id] = true
			}
			var wantPart = -1
			for _, p := range gr.GroupPatterns[gi] {
				for _, b := range sp.AppendCareBlocks(nil, p) {
					id := sp.CoreOrder()[b]
					if !declared[id] {
						t.Fatalf("parts=%d group %s: pattern cares about undeclared core %d", parts, g.Name, id)
					}
					if g.Name != "RES" {
						if wantPart < 0 {
							wantPart = gr.PartOf[id]
						} else if gr.PartOf[id] != wantPart {
							t.Fatalf("parts=%d group %s: spans parts %d and %d", parts, g.Name, wantPart, gr.PartOf[id])
						}
					}
				}
			}
		}
		// Residual (if any) is first and counts match.
		if parts > 1 && len(gr.Groups) > 0 && gr.CutPatterns > 0 {
			if gr.Groups[0].Name != "RES" {
				t.Errorf("parts=%d: first group is %s, want RES", parts, gr.Groups[0].Name)
			}
			var resWeight int64
			for _, p := range gr.GroupPatterns[0] {
				resWeight += int64(p.Weight)
			}
			if resWeight != gr.CutPatterns {
				t.Errorf("parts=%d: residual weight %d != CutPatterns %d", parts, resWeight, gr.CutPatterns)
			}
		}
	}
}

func TestBuildGroupsDeterministic(t *testing.T) {
	s := smallSOC()
	patterns, _, err := sifault.GenerateCtx(context.Background(), s, sifault.GenConfig{N: 800, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	a, err := BuildGroupsCtx(context.Background(), s, patterns, GroupingOptions{Parts: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildGroupsCtx(context.Background(), s, patterns, GroupingOptions{Parts: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalCompacted() != b.TotalCompacted() || a.CutPatterns != b.CutPatterns {
		t.Error("BuildGroups not deterministic")
	}
	for id, p := range a.PartOf {
		if b.PartOf[id] != p {
			t.Errorf("core %d part differs", id)
		}
	}
}

func TestGroupingReducesPatternLengthWork(t *testing.T) {
	// The point of horizontal compaction: with g parts, most patterns
	// involve far fewer cores than the whole SOC.
	s := soc.MustLoadBenchmark("p93791")
	patterns, _, err := sifault.GenerateCtx(context.Background(), s, sifault.GenConfig{N: 2000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	gr1, err := BuildGroupsCtx(context.Background(), s, patterns, GroupingOptions{Parts: 1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	gr4, err := BuildGroupsCtx(context.Background(), s, patterns, GroupingOptions{Parts: 4, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(gr1.Groups[0].Cores) != s.NumCores() {
		t.Errorf("g=1 group involves %d cores, want all %d", len(gr1.Groups[0].Cores), s.NumCores())
	}
	// At least one non-residual g=4 group involves at most half the cores.
	small := false
	for _, g := range gr4.Groups {
		if g.Name != "RES" && len(g.Cores) <= s.NumCores()/2 {
			small = true
		}
	}
	if !small {
		t.Error("g=4 produced no small core groups")
	}
}

// checkCover fails unless gr is a valid cover of patterns of total
// weight want: valid patterns, conserved weight, and every group
// declaring exactly the care cores of its compacted patterns.
func checkCover(t *testing.T, label string, s *soc.SOC, gr *GroupingResult, want int64) {
	t.Helper()
	sp := sifault.NewSpace(s)
	var weight int64
	for gi, g := range gr.Groups {
		seen := map[int]bool{}
		for _, p := range gr.GroupPatterns[gi] {
			if err := p.Validate(sp); err != nil {
				t.Fatalf("%s: group %s: %v", label, g.Name, err)
			}
			weight += int64(p.Weight)
			for _, b := range sp.AppendCareBlocks(nil, p) {
				seen[sp.CoreOrder()[b]] = true
			}
		}
		var ids []int
		for id := range seen {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		if !reflect.DeepEqual(ids, g.Cores) {
			t.Fatalf("%s: group %s declares cores %v, its patterns care about %v", label, g.Name, g.Cores, ids)
		}
		if g.Patterns != int64(len(gr.GroupPatterns[gi])) {
			t.Fatalf("%s: group %s counts %d patterns, holds %d", label, g.Name, g.Patterns, len(gr.GroupPatterns[gi]))
		}
	}
	if weight != want {
		t.Fatalf("%s: groups cover weight %d, want %d", label, weight, want)
	}
}

// TestBuildGroupsDeterministicAcrossGOMAXPROCS pins the concurrent
// per-group compaction: the grouping and its trace (up to span
// durations) do not depend on how many groups compact at once.
func TestBuildGroupsDeterministicAcrossGOMAXPROCS(t *testing.T) {
	s := soc.MustLoadBenchmark("p93791")
	const n = 6000
	patterns, _, err := sifault.GenerateCtx(context.Background(), s, sifault.GenConfig{N: n, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	run := func(procs int) (*GroupingResult, []obs.Event) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		tr := obs.NewTracer()
		gr, err := BuildGroupsCtx(context.Background(), s, patterns, GroupingOptions{Parts: 4, Seed: 12, Trace: tr})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		events := tr.Events()
		if err := obs.ValidateTrace(events); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if err := obs.ValidateSpans(events); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		for i := range events {
			events[i] = events[i].Canonical()
		}
		return gr, events
	}
	want, wantTrace := run(1)
	checkCover(t, "GOMAXPROCS=1", s, want, n)
	if len(want.Groups) != 5 {
		t.Fatalf("%d groups, want RES and four parts", len(want.Groups))
	}
	// The compaction spans come in group order, RES first.
	var spans, counts []int64
	for _, ev := range wantTrace {
		if ev.Type == obs.PhaseEnd && ev.Phase == "compaction" {
			spans = append(spans, ev.N)
		}
	}
	for _, g := range want.Groups {
		counts = append(counts, g.Patterns)
	}
	if !reflect.DeepEqual(spans, counts) {
		t.Fatalf("compaction spans end with counts %v, want the group order %v", spans, counts)
	}
	for _, procs := range []int{2, 8} {
		got, trace := run(procs)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS=%d: grouping differs from GOMAXPROCS=1", procs)
		}
		if !reflect.DeepEqual(trace, wantTrace) {
			t.Errorf("GOMAXPROCS=%d: trace differs from GOMAXPROCS=1", procs)
		}
	}
}

// TestBuildGroupsCancelledMidRun cuts the grouping at several points,
// through partitioning and into the concurrent compactions: every
// result is still a valid cover, marked Partial with its cause.
func TestBuildGroupsCancelledMidRun(t *testing.T) {
	s := soc.MustLoadBenchmark("p93791")
	const n = 6000
	patterns, _, err := sifault.GenerateCtx(context.Background(), s, sifault.GenConfig{N: n, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	opts := GroupingOptions{Parts: 4, Seed: 13}
	const never = 1 << 40
	probe := newAtomicCountdown(never)
	if _, err := BuildGroupsCtx(probe, s, patterns, opts); err != nil {
		t.Fatal(err)
	}
	polls := int(never - probe.n.Load())
	compactionCut := false
	for _, k := range []int{1, polls / 4, polls / 2, 3 * polls / 4, polls - 1} {
		gr, err := BuildGroupsCtx(newAtomicCountdown(k), s, patterns, opts)
		if err != nil {
			t.Fatalf("countdown %d of %d: %v", k, polls, err)
		}
		checkCover(t, "cancelled", s, gr, n)
		if !gr.Partial || gr.Cause != CauseDeadline || gr.Reason == "" {
			t.Fatalf("countdown %d of %d: Partial=%v Cause=%v Reason=%q", k, polls, gr.Partial, gr.Cause, gr.Reason)
		}
		compactionCut = compactionCut || strings.Contains(gr.Reason, "compaction")
	}
	if !compactionCut {
		t.Errorf("no countdown of %d polls cut a compaction", polls)
	}
}

// TestBuildGroupsRejectsEmptyCare: a pattern that cares about no
// position has no care cores to classify it by.
func TestBuildGroupsRejectsEmptyCare(t *testing.T) {
	s := smallSOC()
	patterns := []*sifault.Pattern{{Weight: 1}}
	if _, err := BuildGroupsCtx(context.Background(), s, patterns, GroupingOptions{Parts: 1}); err == nil || !strings.Contains(err.Error(), "no care positions") {
		t.Fatalf("err = %v, want a no-care-positions error", err)
	}
}
