package main

import (
	"fmt"
	"time"

	"sitam/internal/core"
	"sitam/internal/sicheck"
	"sitam/internal/sischedule"
	"sitam/internal/soc"
	"sitam/internal/tam"
	"sitam/internal/trarchitect"
)

// outcome is one result the benchmark checks: an architecture for SOC
// at width wmax, the SI groups scheduled on it, the schedule and the
// breakdown the program reported.
type outcome struct {
	label  string
	soc    *soc.SOC
	wmax   int
	arch   *tam.Architecture
	groups []*sischedule.Group
	sched  *sischedule.Schedule
	bd     core.Breakdown
}

// gateStats accounts the cost of the checks, which run outside the
// timed window.
type gateStats struct {
	checks   clock // sicheck.Check calls
	schedule clock // ScheduleSITest on each final architecture
	lb       map[string]int64
}

func newGateStats() *gateStats { return &gateStats{lb: map[string]int64{}} }

// lowerBound memoizes trarchitect.LowerBound per SOC and width.
func (g *gateStats) lowerBound(s *soc.SOC, wmax int) (int64, error) {
	key := fmt.Sprintf("%s/%d", s.Name, wmax)
	if lb, ok := g.lb[key]; ok {
		return lb, nil
	}
	lb, err := trarchitect.LowerBound(s, wmax)
	if err != nil {
		return 0, err
	}
	g.lb[key] = lb
	return lb, nil
}

// check runs the four checks on one outcome: the independent sicheck
// on a plain-data restatement, Schedule.Validate, T_soc against the
// lower bound, and a recomputation with core.EvaluateBreakdown.
func (g *gateStats) check(o outcome) error {
	inst := instance(o)
	t0 := time.Now()
	err := inst.Check(slots(o.sched), o.sched.TotalSI)
	g.checks.since(t0)
	if err != nil {
		return fmt.Errorf("%s: %w", o.label, err)
	}
	if err := o.sched.Validate(); err != nil {
		return fmt.Errorf("%s: %w", o.label, err)
	}
	if o.bd.TimeSOC != o.bd.TimeIn+o.bd.TimeSI || o.bd.TimeSI != o.sched.TotalSI {
		return fmt.Errorf("%s: inconsistent breakdown %+v for a schedule ending at %d", o.label, o.bd, o.sched.TotalSI)
	}
	lb, err := g.lowerBound(o.soc, o.wmax)
	if err != nil {
		return fmt.Errorf("%s: lower bound: %w", o.label, err)
	}
	if o.bd.TimeSOC < lb {
		return fmt.Errorf("%s: T_soc %d below the lower bound %d", o.label, o.bd.TimeSOC, lb)
	}
	bd, _, err := core.EvaluateBreakdown(o.arch.Clone(), o.groups, sischedule.DefaultModel())
	if err != nil {
		return fmt.Errorf("%s: recompute: %w", o.label, err)
	}
	if bd != o.bd {
		return fmt.Errorf("%s: recomputed breakdown %+v differs from reported %+v", o.label, bd, o.bd)
	}
	t0 = time.Now()
	_, err = sischedule.ScheduleSITest(o.arch.Clone(), o.groups, sischedule.DefaultModel())
	g.schedule.since(t0)
	if err != nil {
		return fmt.Errorf("%s: schedule: %w", o.label, err)
	}
	return nil
}

func (g *gateStats) addMetrics(r *report) {
	r.add(metric{name: "sischedule.schedule_us", unit: "us", value: ratio(float64(g.schedule.ns)/1e3, float64(g.schedule.calls)), n: int(g.schedule.calls),
		note: "mean ScheduleSITest time on a final architecture"})
	r.add(metric{name: "sicheck.check_s", unit: "s", value: g.checks.seconds(), n: int(g.checks.calls),
		note: "outside the timed window"})
}

// instance restates an outcome as plain data for the independent
// checker: core WOCs, rail specs, group membership and the cost model.
func instance(o outcome) *sicheck.Instance {
	m := sischedule.DefaultModel()
	inst := &sicheck.Instance{WOC: make(map[int]int, o.soc.NumCores()), Bypass: m.Bypass, Overhead: m.Overhead}
	for _, c := range o.soc.Cores() {
		inst.WOC[c.ID] = c.WOC()
	}
	for _, r := range o.arch.Rails {
		inst.Rails = append(inst.Rails, sicheck.Rail{Width: r.Width, Cores: append([]int(nil), r.Cores...)})
	}
	for _, g := range o.groups {
		inst.Groups = append(inst.Groups, sicheck.Group{Name: g.Name, Cores: append([]int(nil), g.Cores...), Patterns: g.Patterns})
	}
	if cs := o.soc.Constraints; cs != nil {
		inst.PowerBudget = cs.PowerBudget
		inst.CorePower = make(map[int]int64, len(cs.CorePower))
		for id, p := range cs.CorePower {
			inst.CorePower[id] = p
		}
		for _, pr := range cs.Precedences {
			inst.Precedences = append(inst.Precedences, [2]int{pr.Before, pr.After})
		}
		for _, set := range cs.Exclusions {
			inst.Exclusions = append(inst.Exclusions, append([]int(nil), set...))
		}
	}
	return inst
}

func slots(s *sischedule.Schedule) []sicheck.Slot {
	out := make([]sicheck.Slot, len(s.Slots))
	for i, sl := range s.Slots {
		out[i] = sicheck.Slot{Group: sl.Group.Name, Begin: sl.Begin, End: sl.End}
	}
	return out
}
