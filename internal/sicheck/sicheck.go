// Package sicheck is the independent constraint checker: given a
// plain-data description of a scheduling instance and a finished
// schedule, it re-derives every property the scheduler is supposed to
// guarantee — slot durations from the paper's cost model, rail
// exclusivity, the power budget, and the core-level precedence and
// exclusion semantics — from first principles. The generative
// differential harness uses it, and core.Engine.Finish runs it on
// every optimization result.
//
// The package intentionally shares no code (and no types) with
// internal/sischedule: it has its own ceiling division, its own
// bottleneck-rail scan, and it checks precedence and exclusion against
// the raw core-level constraint vocabulary rather than the scheduler's
// lifted group-index form. Everything is written for obviousness, not
// speed — O(n^2) scans with no incremental state — so a disagreement
// between the two implementations always indicts the clever one. See
// DESIGN.md ("Generator/checker independence").
package sicheck

import "fmt"

// Rail is one TestRail: a width and the IDs of the cores it hosts.
type Rail struct {
	Width int
	Cores []int
}

// Group is one SI test group.
type Group struct {
	Name     string
	Cores    []int
	Patterns int64
}

// Slot is one scheduled group, matched to Groups by name.
type Slot struct {
	Group      string
	Begin, End int64
}

// Instance is the plain-data description of a constrained scheduling
// instance.
type Instance struct {
	// WOC maps a core ID to its wrapper output cell count.
	WOC map[int]int

	Rails  []Rail
	Groups []Group

	// Bypass and Overhead are the cost model's per-pattern constants.
	Bypass, Overhead int64

	// PowerBudget caps the summed power of concurrently running
	// groups; 0 means unlimited.
	PowerBudget int64

	// CorePower overrides a core's test power; cores not in the map
	// default to their WOC.
	CorePower map[int]int64

	// Precedences holds core-level edges [before, after]: every group
	// involving `before` must finish before any group involving
	// `after` starts, except groups containing both cores (internally
	// satisfied) and zero-duration groups.
	Precedences [][2]int

	// Exclusions holds core-level sets: no two distinct groups each
	// involving a core of one set may overlap in time.
	Exclusions [][]int
}

func ceil(a, b int64) int64 {
	q := a / b
	if q*b < a {
		q++
	}
	return q
}

func (inst *Instance) power(coreID int) int64 {
	if p, ok := inst.CorePower[coreID]; ok {
		return p
	}
	return int64(inst.WOC[coreID])
}

func contains(cores []int, id int) bool {
	for _, c := range cores {
		if c == id {
			return true
		}
	}
	return false
}

// Duration recomputes group g's testing time on the instance's rails:
// for every rail hosting at least one group core, the per-pattern cost
// is the sum of ceil(WOC/width) over the cores on the rail that are in
// the group, plus Bypass for each hosted core not in the group, plus
// Overhead; the group's time is Patterns times the worst rail. A group
// touching no rail takes zero time.
func (inst *Instance) Duration(g *Group) int64 {
	var worst int64
	for _, r := range inst.Rails {
		var shift int64
		skipped := int64(0)
		involved := false
		for _, id := range r.Cores {
			if contains(g.Cores, id) {
				shift += ceil(int64(inst.WOC[id]), int64(r.Width))
				involved = true
			} else {
				skipped++
			}
		}
		if !involved {
			continue
		}
		t := g.Patterns * (shift + inst.Bypass*skipped + inst.Overhead)
		if t > worst {
			worst = t
		}
	}
	return worst
}

// GroupPower recomputes group g's test power: the sum of its cores'
// powers (duplicate core IDs counted once).
func (inst *Instance) GroupPower(g *Group) int64 {
	var p int64
	for i, id := range g.Cores {
		if !contains(g.Cores[:i], id) {
			p += inst.power(id)
		}
	}
	return p
}

// rails returns the indices of the rails hosting at least one core of g.
func (inst *Instance) rails(g *Group) []int {
	var out []int
	for ri, r := range inst.Rails {
		for _, id := range r.Cores {
			if contains(g.Cores, id) {
				out = append(out, ri)
				break
			}
		}
	}
	return out
}

// Check validates a finished schedule against the instance. totalSI is
// the schedule's claimed makespan. It verifies, in order:
//
//  1. every group appears in exactly one slot and vice versa;
//  2. every slot's duration equals the recomputed group time, and
//     totalSI is the maximum slot end;
//  3. no two temporally overlapping slots share a rail;
//  4. at no slot start does the summed power of running groups exceed
//     the budget;
//  5. every core-level precedence edge is respected;
//  6. no two mutually exclusive groups overlap.
//
// Zero-duration slots are exempt from 3-6 (they occupy nothing).
func (inst *Instance) Check(slots []Slot, totalSI int64) error {
	bySlot := make(map[string]int, len(slots))
	for i, sl := range slots {
		if _, dup := bySlot[sl.Group]; dup {
			return fmt.Errorf("sicheck: group %q scheduled twice", sl.Group)
		}
		bySlot[sl.Group] = i
	}
	groupOf := make(map[string]*Group, len(inst.Groups))
	var maxEnd int64
	for gi := range inst.Groups {
		g := &inst.Groups[gi]
		if _, dup := groupOf[g.Name]; dup {
			return fmt.Errorf("sicheck: duplicate group name %q", g.Name)
		}
		groupOf[g.Name] = g
		si, ok := bySlot[g.Name]
		if !ok {
			return fmt.Errorf("sicheck: group %q not scheduled", g.Name)
		}
		sl := slots[si]
		if sl.Begin < 0 || sl.End < sl.Begin {
			return fmt.Errorf("sicheck: group %q has slot [%d, %d)", g.Name, sl.Begin, sl.End)
		}
		if want := inst.Duration(g); sl.End-sl.Begin != want {
			return fmt.Errorf("sicheck: group %q runs %d cycles, cost model says %d", g.Name, sl.End-sl.Begin, want)
		}
		if sl.End > maxEnd {
			maxEnd = sl.End
		}
	}
	for name := range bySlot {
		if _, ok := groupOf[name]; !ok {
			return fmt.Errorf("sicheck: slot for unknown group %q", name)
		}
	}
	if totalSI != maxEnd {
		return fmt.Errorf("sicheck: claimed makespan %d, slots end at %d", totalSI, maxEnd)
	}

	// run[i] is slot i restated with its group and rails, zero-duration
	// slots dropped.
	type runSlot struct {
		g          *Group
		begin, end int64
		rails      []int
	}
	var run []runSlot
	for _, sl := range slots {
		if sl.End == sl.Begin {
			continue
		}
		g := groupOf[sl.Group]
		run = append(run, runSlot{g: g, begin: sl.Begin, end: sl.End, rails: inst.rails(g)})
	}
	overlap := func(a, b *runSlot) bool {
		return a.begin < b.end && b.begin < a.end
	}

	for i := range run {
		for j := i + 1; j < len(run); j++ {
			if !overlap(&run[i], &run[j]) {
				continue
			}
			for _, ra := range run[i].rails {
				for _, rb := range run[j].rails {
					if ra == rb {
						return fmt.Errorf("sicheck: groups %q and %q overlap on rail %d", run[i].g.Name, run[j].g.Name, ra)
					}
				}
			}
		}
	}

	if inst.PowerBudget > 0 {
		for i := range run {
			var inUse int64
			for j := range run {
				if run[j].begin <= run[i].begin && run[i].begin < run[j].end {
					inUse += inst.GroupPower(run[j].g)
				}
			}
			if inUse > inst.PowerBudget {
				return fmt.Errorf("sicheck: power %d in use at t=%d exceeds budget %d", inUse, run[i].begin, inst.PowerBudget)
			}
		}
	}

	for _, pr := range inst.Precedences {
		before, after := pr[0], pr[1]
		for i := range run {
			gb := run[i].g
			if !contains(gb.Cores, before) || contains(gb.Cores, after) {
				continue
			}
			for j := range run {
				ga := run[j].g
				if ga == gb || !contains(ga.Cores, after) || contains(ga.Cores, before) {
					continue
				}
				if run[i].end > run[j].begin {
					return fmt.Errorf("sicheck: Precede %d %d violated: %q ends at %d after %q starts at %d",
						before, after, gb.Name, run[i].end, ga.Name, run[j].begin)
				}
			}
		}
	}

	for _, set := range inst.Exclusions {
		inSet := func(g *Group) bool {
			for _, id := range set {
				if contains(g.Cores, id) {
					return true
				}
			}
			return false
		}
		for i := range run {
			if !inSet(run[i].g) {
				continue
			}
			for j := i + 1; j < len(run); j++ {
				if inSet(run[j].g) && overlap(&run[i], &run[j]) {
					return fmt.Errorf("sicheck: Exclude %v violated: %q and %q overlap", set, run[i].g.Name, run[j].g.Name)
				}
			}
		}
	}
	return nil
}
