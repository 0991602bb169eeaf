package core

import (
	"context"
	"testing"

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
				for _, id := range p.CareCores(sp) {
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
