// Package sischedule implements the paper's SI test scheduling for a
// given TestRail architecture: the CalculateSITestTime procedure
// (per-group testing time, Example 1 semantics) and Algorithm 1,
// ScheduleSITest (Fig. 5), which packs SI test groups onto the rails so
// that groups whose rail sets are disjoint run concurrently.
//
// The per-rail, per-pattern cost model: shifting one SI pattern of group
// s through rail r costs
//
//	Σ_{c ∈ C(r)∩C(s)} ceil(WOC_c / width(r))   (boundary shift)
//	+ Bypass · |C(r) \ C(s)|                    (don't-care core bypass)
//	+ Overhead                                  (launch + capture)
//
// cycles; the rail's time for the group is that times the group's
// pattern count, and the group's testing time is the maximum over its
// involved rails — the bottleneck rail (Example 1).
package sischedule

import (
	"fmt"
	"sort"

	"sitam/internal/obs"
	"sitam/internal/tam"
)

// Group is one SI test group: a set of involved cores and a compacted
// pattern count (the data structure of Fig. 4, left).
type Group struct {
	// Name labels the group in schedules and reports.
	Name string

	// Cores holds the IDs of the involved cores (the paper's C(s)),
	// sorted ascending.
	Cores []int

	// Patterns is the number of (compacted) SI test patterns.
	Patterns int64
}

// Clone returns a deep copy of the group.
func (g *Group) Clone() *Group {
	c := *g
	c.Cores = append([]int(nil), g.Cores...)
	return &c
}

// Model holds the per-pattern cost constants of the shift model. The
// zero value means zero bypass and zero overhead cycles; use
// DefaultModel for the constants the experiments assume.
type Model struct {
	// Bypass is the cycle cost per pattern of bypassing one don't-care
	// core on a rail.
	Bypass int64

	// Overhead is the per-pattern launch/capture cycle cost added to
	// every involved rail.
	Overhead int64
}

// DefaultModel returns the cost constants used throughout the
// experiments: 1 bypass cycle per skipped core, and 3 launch/capture
// cycles per pattern (two launch cycles for the vector pair plus one
// capture).
func DefaultModel() Model { return Model{Bypass: 1, Overhead: 3} }

// GroupTime is the outcome of CalculateSITestTime for one group.
type GroupTime struct {
	// Time is the group's SI testing time time_si(s): pattern count
	// times the bottleneck rail's per-pattern cycles.
	Time int64

	// Rails holds the indices (into the architecture's rail slice) of
	// the rails involved in the group — R_tam(s).
	Rails []int

	// Bottleneck is the index of the bottleneck rail r_btn(s), the
	// involved rail with the largest time.
	Bottleneck int

	// PerRail[i] is the rail Rails[i]'s own busy time for this group
	// (pattern count times that rail's per-pattern cycles). The
	// bottleneck entry equals Time.
	PerRail []int64
}

// CalculateSITestTime computes, for every group, its testing time under
// the given architecture (the paper's CalculateSITestTime procedure).
//
// The implementation is allocation-lean: core WOCs and group membership
// live in dense ID-indexed slices (core IDs are small in every
// benchmark SOC) with membership epoch-stamped per group instead of one
// map per group, and all groups' Rails/PerRail slices are carved out of
// two shared arenas. This function sits under the from-scratch
// evaluator and the optimizer's cost loops, so steady-state garbage is
// measurable end to end (see Benchmark_ScheduleSITest).
func CalculateSITestTime(a *tam.Architecture, groups []*Group, m Model) ([]GroupTime, error) {
	out := make([]GroupTime, len(groups))
	maxID := -1
	for _, c := range a.SOC.Cores() {
		if c.ID > maxID {
			maxID = c.ID
		}
	}
	// wocByID[id] is the core's WOC, or -1 for IDs that name no core.
	wocByID := make([]int64, maxID+1)
	for i := range wocByID {
		wocByID[i] = -1
	}
	for _, c := range a.SOC.Cores() {
		wocByID[c.ID] = int64(c.WOC())
	}
	// inGroup[id] == epoch marks membership in the current group; a new
	// epoch invalidates all marks at once, so the slice is written only
	// for the group's own cores.
	inGroup := make([]uint32, maxID+1)
	var epoch uint32
	// Shared arenas for every group's Rails/PerRail. Slice headers are
	// fixed up after the fill, when the backing arrays stop moving.
	railsArena := make([]int, 0, 4*len(groups))
	perArena := make([]int64, 0, 4*len(groups))
	offs := make([]int, len(groups)+1)
	for gi, g := range groups {
		epoch++
		for _, id := range g.Cores {
			if id < 0 || id >= len(wocByID) || wocByID[id] < 0 {
				return nil, fmt.Errorf("sischedule: group %q involves unknown core %d", g.Name, id)
			}
			inGroup[id] = epoch
		}
		gt := GroupTime{Bottleneck: -1}
		offs[gi] = len(railsArena)
		for ri := range a.Rails {
			r := a.Rails[ri]
			var shift int64
			nCare := 0
			for _, id := range r.Cores {
				if inGroup[id] == epoch {
					shift += ceilDiv(wocByID[id], int64(r.Width))
					nCare++
				}
			}
			if nCare == 0 {
				continue // rail not involved
			}
			perPattern := shift + m.Bypass*int64(len(r.Cores)-nCare) + m.Overhead
			t := g.Patterns * perPattern
			railsArena = append(railsArena, ri)
			perArena = append(perArena, t)
			if t > gt.Time || gt.Bottleneck < 0 {
				gt.Time = t
				gt.Bottleneck = ri
			}
		}
		out[gi] = gt
	}
	offs[len(groups)] = len(railsArena)
	for gi := range out {
		if offs[gi] == offs[gi+1] {
			continue // no involved rails: keep Rails/PerRail nil
		}
		out[gi].Rails = railsArena[offs[gi]:offs[gi+1]:offs[gi+1]]
		out[gi].PerRail = perArena[offs[gi]:offs[gi+1]:offs[gi+1]]
	}
	return out, nil
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// Slot is one scheduled group.
type Slot struct {
	Group *Group
	GroupTime
	Begin int64
	End   int64

	// Power is the group's test power under the schedule's constraint
	// set (0 when the schedule was built unconstrained).
	Power int64
}

// Schedule is the result of ScheduleSITest.
type Schedule struct {
	Slots []Slot

	// TotalSI is the SOC SI testing time T_soc_si: the time at which
	// the last group finishes.
	TotalSI int64

	// RailSI[i] is the accumulated busy SI time of rail i across all
	// groups — the time_si(r) bookkeeping of Fig. 4.
	RailSI []int64
}

// ScheduleSITest implements Algorithm 1 (Fig. 5): it schedules the SI
// test groups on the architecture's rails, running groups concurrently
// whenever their rail sets are disjoint, and returns the schedule and
// T_soc_si. Groups are considered in input order (the paper's "find s*"
// picks the first schedulable unscheduled test).
//
// As a side effect it refreshes each rail's TimeSI field with the rail's
// accumulated busy time.
func ScheduleSITest(a *tam.Architecture, groups []*Group, m Model) (*Schedule, error) {
	return ScheduleSITestConsObs(a, groups, m, nil, nil)
}

// ScheduleSITestConsObs is ScheduleSITest under a compiled constraint
// set and with tracing. Under a constraint set a group is only picked
// when its rails are free AND its power fits the remaining budget AND
// all its predecessor groups have finished AND no mutually exclusive
// group is running; otherwise time advances exactly as in Algorithm 1.
// A nil cons is byte-identical to ScheduleSITest — constrained and
// unconstrained runs share this one code path.
//
// A non-nil sink receives each scheduled slot as an si_group_scheduled
// event (group name, begin and end times, involved rail count,
// bottleneck rail, pattern count) in slot order, which is
// deterministic. Under a constraint set each event additionally carries
// the group's power and the budget, making every event self-contained
// for downstream power validation (sitrace -check) even on truncated
// traces. A nil sink traces nothing.
func ScheduleSITestConsObs(a *tam.Architecture, groups []*Group, m Model, cons *Constraints, sink obs.Sink) (*Schedule, error) {
	sched, err := scheduleSITest(a, groups, m, cons)
	if err != nil || sink == nil {
		return sched, err
	}
	var budget int64
	if cons != nil {
		budget = cons.PowerBudget
	}
	for i := range sched.Slots {
		sl := &sched.Slots[i]
		if len(sl.Rails) == 0 {
			continue // group touches no rail: nothing was placed
		}
		sink.Emit(obs.Event{
			Type: obs.SIGroupScheduled, Group: sl.Group.Name,
			Begin: sl.Begin, End: sl.End,
			Rails: len(sl.Rails), Rail: sl.Bottleneck,
			N:     sl.Group.Patterns,
			Power: sl.Power, Budget: budget,
		})
	}
	return sched, nil
}

func scheduleSITest(a *tam.Architecture, groups []*Group, m Model, cons *Constraints) (*Schedule, error) {
	times, err := CalculateSITestTime(a, groups, m)
	if err != nil {
		return nil, err
	}
	if err := cons.Feasible(groups, times); err != nil {
		return nil, err
	}
	sched := &Schedule{
		Slots:  make([]Slot, 0, len(groups)),
		RailSI: make([]int64, len(a.Rails)),
	}

	type pending struct {
		g     *Group
		gt    GroupTime
		gi    int32 // index into groups (constraint tables)
		power int64
	}
	// endOf[gi] is group gi's finish time, or -1 while unscheduled;
	// runningG[gi] marks gi currently occupying its rails. Only used
	// under constraints.
	var endOf []int64
	var runningG []bool
	if cons != nil {
		endOf = make([]int64, len(groups))
		for i := range endOf {
			endOf[i] = -1
		}
		runningG = make([]bool, len(groups))
	}
	unsched := make([]pending, 0, len(groups))
	for i, g := range groups {
		// Groups that touch no rail (no involved cores or zero rails)
		// take no time; record them as zero-length slots at t=0. They
		// are exempt from constraints and count as finished immediately.
		if len(times[i].Rails) == 0 || g.Patterns == 0 {
			sched.Slots = append(sched.Slots, Slot{Group: g, GroupTime: times[i]})
			for j, ri := range times[i].Rails {
				sched.RailSI[ri] += times[i].PerRail[j]
			}
			if cons != nil {
				endOf[i] = 0
			}
			continue
		}
		p := pending{g: g, gt: times[i], gi: int32(i)}
		if cons != nil {
			p.power = cons.GroupPower[i]
		}
		unsched = append(unsched, p)
	}

	busy := make([]bool, len(a.Rails)) // currSchedTAMs
	type running struct {
		end   int64
		rails []int
		gi    int32
		power int64
	}
	active := make([]running, 0, len(a.Rails))
	var currTime, powerInUse int64

	for len(unsched) > 0 {
		// Find the first unscheduled group whose rails are all free and,
		// under constraints, whose power fits, predecessors finished and
		// exclusion partners idle.
		found := -1
		for i, p := range unsched {
			if cons != nil && !cons.admissible(p.gi, p.power, powerInUse, currTime, endOf, runningG) {
				continue
			}
			ok := true
			for _, ri := range p.gt.Rails {
				if busy[ri] {
					ok = false
					break
				}
			}
			if ok {
				found = i
				break
			}
		}
		if found >= 0 {
			p := unsched[found]
			unsched = append(unsched[:found], unsched[found+1:]...)
			slot := Slot{Group: p.g, GroupTime: p.gt, Begin: currTime, End: currTime + p.gt.Time, Power: p.power}
			sched.Slots = append(sched.Slots, slot)
			for j, ri := range p.gt.Rails {
				busy[ri] = true
				sched.RailSI[ri] += p.gt.PerRail[j]
			}
			active = append(active, running{slot.End, p.gt.Rails, p.gi, p.power})
			powerInUse += p.power
			if cons != nil {
				endOf[p.gi] = slot.End
				runningG[p.gi] = true
			}
			if slot.End > sched.TotalSI {
				sched.TotalSI = slot.End
			}
			continue
		}
		// No group fits: advance to the earliest end after currTime and
		// release its rails (Lines 13-16).
		var next int64 = -1
		for _, r := range active {
			if r.end > currTime && (next < 0 || r.end < next) {
				next = r.end
			}
		}
		if next < 0 {
			return nil, fmt.Errorf("sischedule: deadlock — %d groups unscheduled with no active group", len(unsched))
		}
		currTime = next
		keep := active[:0]
		for _, r := range active {
			if r.end > currTime {
				keep = append(keep, r)
			} else {
				for _, ri := range r.rails {
					busy[ri] = false
				}
				powerInUse -= r.power
				if cons != nil {
					runningG[r.gi] = false
				}
			}
		}
		active = keep
	}

	for i, t := range sched.RailSI {
		a.Rails[i].SetTimeSI(t)
	}
	return sched, nil
}

// admissible reports whether group gi may start at currTime under the
// constraints, given the scheduler's running state: power headroom,
// predecessors finished (scheduled with end <= now), and no running
// exclusion partner. Rail availability is the caller's check.
func (c *Constraints) admissible(gi int32, power, powerInUse, currTime int64, endOf []int64, runningG []bool) bool {
	if c.PowerBudget > 0 && powerInUse+power > c.PowerBudget {
		return false
	}
	for _, p := range c.preds[gi] {
		if endOf[p] < 0 || endOf[p] > currTime {
			return false
		}
	}
	for _, e := range c.excl[gi] {
		if runningG[e] {
			return false
		}
	}
	return true
}

// SerialTime returns the SI testing time when the groups are applied
// strictly one after another (no Algorithm 1 concurrency): the sum of
// the group times. Used as the scheduling ablation baseline.
func SerialTime(a *tam.Architecture, groups []*Group, m Model) (int64, error) {
	times, err := CalculateSITestTime(a, groups, m)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, gt := range times {
		total += gt.Time
	}
	return total, nil
}

// Validate checks schedule invariants: no two temporally overlapping
// slots share a rail, every slot's duration matches its group time.
func (s *Schedule) Validate() error {
	for i, a := range s.Slots {
		if a.End-a.Begin != a.Time {
			return fmt.Errorf("sischedule: slot %d duration %d != group time %d", i, a.End-a.Begin, a.Time)
		}
		for j := i + 1; j < len(s.Slots); j++ {
			b := s.Slots[j]
			if a.Begin < b.End && b.Begin < a.End && a.Time > 0 && b.Time > 0 {
				for _, ra := range a.Rails {
					for _, rb := range b.Rails {
						if ra == rb {
							return fmt.Errorf("sischedule: slots %d and %d overlap on rail %d", i, j, ra)
						}
					}
				}
			}
		}
	}
	return nil
}

// String renders the schedule as a time-sorted listing.
func (s *Schedule) String() string {
	slots := append([]Slot(nil), s.Slots...)
	sort.Slice(slots, func(i, j int) bool {
		if slots[i].Begin != slots[j].Begin {
			return slots[i].Begin < slots[j].Begin
		}
		return slots[i].Group.Name < slots[j].Group.Name
	})
	out := fmt.Sprintf("SI schedule: T_si=%d\n", s.TotalSI)
	for _, sl := range slots {
		out += fmt.Sprintf("  [%8d, %8d) %-8s rails=%v bottleneck=TAM%d patterns=%d\n",
			sl.Begin, sl.End, sl.Group.Name, sl.Rails, sl.Bottleneck+1, sl.Group.Patterns)
	}
	return out
}
