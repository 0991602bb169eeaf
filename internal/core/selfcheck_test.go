package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"sitam/internal/sifault"
	"sitam/internal/sischedule"
	"sitam/internal/soc"
)

// TestScheduleSelfCheckRejectsTampering pins the check Engine.Finish
// runs on every result in every build: the optimizer's own schedule
// passes sicheck, and each way of tampering with it is rejected as an
// internal error.
func TestScheduleSelfCheckRejectsTampering(t *testing.T) {
	s := soc.MustLoadBenchmark("d695")
	ctx := context.Background()
	patterns, _, err := sifault.GenerateCtx(ctx, s, sifault.GenConfig{N: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := BuildGroupsCtx(ctx, s, patterns, GroupingOptions{Parts: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := sischedule.DefaultModel()
	res, err := Solve(ctx, s, 16, gr.Groups, m, Algo{}, ParallelConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSchedule(res.Architecture, gr.Groups, m, res.Schedule); err != nil {
		t.Fatalf("optimizer's own schedule rejected: %v", err)
	}

	// Two timed slots sharing a rail, for the overlap case.
	shared := func(sc *sischedule.Schedule) (int, int) {
		for i := range sc.Slots {
			for j := i + 1; j < len(sc.Slots); j++ {
				a, b := &sc.Slots[i], &sc.Slots[j]
				if a.End == a.Begin || b.End == b.Begin {
					continue
				}
				for _, ra := range a.Rails {
					for _, rb := range b.Rails {
						if ra == rb {
							return i, j
						}
					}
				}
			}
		}
		t.Fatal("no two timed slots share a rail")
		return 0, 0
	}
	longest := func(sc *sischedule.Schedule) int {
		best := 0
		for i, sl := range sc.Slots {
			if sl.End-sl.Begin > sc.Slots[best].End-sc.Slots[best].Begin {
				best = i
			}
		}
		return best
	}
	for _, tc := range []struct {
		name, want string
		tamper     func(sc *sischedule.Schedule)
	}{
		{"claimed makespan", "claimed makespan", func(sc *sischedule.Schedule) { sc.TotalSI++ }},
		{"shortened slot", "cost model says", func(sc *sischedule.Schedule) { sc.Slots[longest(sc)].End-- }},
		{"dropped slot", "not scheduled", func(sc *sischedule.Schedule) { sc.Slots = sc.Slots[1:] }},
		{"rail overlap", "overlap on rail", func(sc *sischedule.Schedule) {
			i, j := shared(sc)
			d := sc.Slots[j].End - sc.Slots[j].Begin
			sc.Slots[j].Begin = sc.Slots[i].Begin
			sc.Slots[j].End = sc.Slots[i].Begin + d
			sc.TotalSI = 0
			for _, sl := range sc.Slots {
				sc.TotalSI = max(sc.TotalSI, sl.End)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := *res.Schedule
			sc.Slots = append([]sischedule.Slot(nil), res.Schedule.Slots...)
			tc.tamper(&sc)
			err := checkSchedule(res.Architecture, gr.Groups, m, &sc)
			if !errors.Is(err, ErrInternal) {
				t.Fatalf("tampered schedule: err = %v, want ErrInternal", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want it to mention %q", err, tc.want)
			}
		})
	}
}

// TestFinishAcceptsDuplicateGroupNames: group names are caller-chosen
// labels the scheduler never relies on, so the self-check must not
// mistake two groups sharing a name for one group scheduled twice.
func TestFinishAcceptsDuplicateGroupNames(t *testing.T) {
	s := soc.MustLoadBenchmark("d695")
	ctx := context.Background()
	patterns, _, err := sifault.GenerateCtx(ctx, s, sifault.GenConfig{N: 1000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := BuildGroupsCtx(ctx, s, patterns, GroupingOptions{Parts: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gr.Groups {
		g.Name = "same"
	}
	if _, err := Solve(ctx, s, 16, gr.Groups, sischedule.DefaultModel(), Algo{}, ParallelConfig{Workers: 1}); err != nil {
		t.Fatal(err)
	}
}
