package sischedule

import (
	"fmt"
	"sort"

	"sitam/internal/soc"
	"sitam/internal/tam"
)

// Constraints is a soc.ConstraintSet compiled against a concrete group
// list: the core-level vocabulary of the .soc Constraints stanza lifted
// onto SI test group indices, in the form the scheduling loops consume
// directly. A nil *Constraints means unconstrained, and every scheduler
// entry point taking one degrades to plain Algorithm 1 byte-for-byte.
//
// Compilation is per (constraint set, group list) and independent of
// the architecture: group membership and core powers do not change as
// the optimizer moves cores between rails, so one compiled value is
// shared across every candidate evaluation of a run.
type Constraints struct {
	// PowerBudget caps the summed GroupPower of concurrently running
	// groups; 0 means unlimited.
	PowerBudget int64

	// GroupPower[gi] is the test power of group gi: Σ PowerOf over its
	// cores (CorePower override or WOC default).
	GroupPower []int64

	// preds[gi] lists the group indices that must finish before group
	// gi may start (the core precedence relation lifted to groups).
	preds [][]int32

	// excl[gi] lists the group indices that may not run concurrently
	// with group gi (symmetric).
	excl [][]int32
}

// CompileConstraints lifts a core-level constraint set onto the given
// groups. A nil or empty set compiles to nil (unconstrained). The
// lifting rules:
//
//   - GroupPower: each group's power is the sum of its cores' powers.
//   - Precede b a: every group involving core b must finish before any
//     group involving core a starts. A group containing both cores
//     satisfies the relation internally and is exempt from that edge.
//   - Exclude set: no two distinct groups each involving a core of the
//     set may run concurrently.
//
// The lifted precedence relation must be acyclic over groups — cores
// sharing groups can induce group-level cycles that are invisible at
// core level — and a cycle is reported as an error wrapping
// soc.ErrInvalid.
func CompileConstraints(s *soc.SOC, cs *soc.ConstraintSet, groups []*Group) (*Constraints, error) {
	if cs.Empty() {
		return nil, nil
	}
	if err := cs.Validate(s); err != nil {
		return nil, err
	}
	c := &Constraints{
		PowerBudget: cs.PowerBudget,
		GroupPower:  make([]int64, len(groups)),
		preds:       make([][]int32, len(groups)),
		excl:        make([][]int32, len(groups)),
	}
	powerOf := make(map[int]int64, s.NumCores())
	for _, core := range s.Cores() {
		powerOf[core.ID] = cs.PowerOf(core)
	}
	// groupsOf[id] = indices of groups involving core id.
	groupsOf := make(map[int][]int32)
	has := make([]map[int]bool, len(groups))
	for gi, g := range groups {
		has[gi] = make(map[int]bool, len(g.Cores))
		for _, id := range g.Cores {
			if has[gi][id] {
				continue
			}
			has[gi][id] = true
			c.GroupPower[gi] += powerOf[id]
			groupsOf[id] = append(groupsOf[id], int32(gi))
		}
	}

	edge := make(map[[2]int32]bool)
	for _, pr := range cs.Precedences {
		for _, gb := range groupsOf[pr.Before] {
			if has[gb][pr.After] {
				continue // contains both endpoints: internally satisfied
			}
			for _, ga := range groupsOf[pr.After] {
				if gb == ga || has[ga][pr.Before] {
					continue
				}
				k := [2]int32{gb, ga}
				if !edge[k] {
					edge[k] = true
					c.preds[ga] = append(c.preds[ga], gb)
				}
			}
		}
	}
	for gi := range c.preds {
		sortInt32s(c.preds[gi])
	}
	if cyc := groupCycle(c.preds); cyc != nil {
		names := make([]string, len(cyc))
		for i, gi := range cyc {
			names[i] = groups[gi].Name
		}
		return nil, fmt.Errorf("%w: core precedence lifts to a cyclic group order through %v", soc.ErrInvalid, names)
	}

	pair := make(map[[2]int32]bool)
	for _, exset := range cs.Exclusions {
		var touched []int32
		seenG := make(map[int32]bool)
		for _, id := range exset {
			for _, gi := range groupsOf[id] {
				if !seenG[gi] {
					seenG[gi] = true
					touched = append(touched, gi)
				}
			}
		}
		sortInt32s(touched)
		for i, ga := range touched {
			for _, gb := range touched[i+1:] {
				k := [2]int32{ga, gb}
				if !pair[k] {
					pair[k] = true
					c.excl[ga] = append(c.excl[ga], gb)
					c.excl[gb] = append(c.excl[gb], ga)
				}
			}
		}
	}
	for gi := range c.excl {
		sortInt32s(c.excl[gi])
	}
	return c, nil
}

func sortInt32s(v []int32) {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
}

// groupCycle returns the group indices left unpeeled by Kahn's
// algorithm over the lifted precedence DAG, or nil when acyclic.
func groupCycle(preds [][]int32) []int32 {
	n := len(preds)
	indeg := make([]int, n)
	succ := make([][]int32, n)
	for gi, ps := range preds {
		indeg[gi] = len(ps)
		for _, p := range ps {
			succ[p] = append(succ[p], int32(gi))
		}
	}
	queue := make([]int32, 0, n)
	for gi, d := range indeg {
		if d == 0 {
			queue = append(queue, int32(gi))
		}
	}
	left := n
	for len(queue) > 0 {
		gi := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		left--
		for _, nxt := range succ[gi] {
			if indeg[nxt]--; indeg[nxt] == 0 {
				queue = append(queue, nxt)
			}
		}
	}
	if left == 0 {
		return nil
	}
	var cyc []int32
	for gi, d := range indeg {
		if d > 0 {
			cyc = append(cyc, int32(gi))
		}
	}
	return cyc
}

// powerOnly compiles a budget-only constraint (the ScheduleSITestPower
// compatibility path): GroupPower from plain WOC sums, no precedence,
// no exclusion. A budget <= 0 compiles to nil.
func powerOnly(a *tam.Architecture, groups []*Group, budget int64) *Constraints {
	if budget <= 0 {
		return nil
	}
	c := &Constraints{
		PowerBudget: budget,
		GroupPower:  make([]int64, len(groups)),
		preds:       make([][]int32, len(groups)),
		excl:        make([][]int32, len(groups)),
	}
	for gi, g := range groups {
		c.GroupPower[gi] = GroupPower(a, g)
	}
	return c
}

// Feasible reports the first group whose power alone exceeds the
// budget, making any schedule impossible. Groups that never occupy a
// rail (no involved rails, or zero patterns) are recorded as
// zero-length slots by the scheduler and are exempt — the exemption
// matches the scheduler's pending split exactly.
func (c *Constraints) Feasible(groups []*Group, times []GroupTime) error {
	if c == nil || c.PowerBudget <= 0 {
		return nil
	}
	for gi, g := range groups {
		if times != nil && (len(times[gi].Rails) == 0 || g.Patterns == 0) {
			continue
		}
		if c.GroupPower[gi] > c.PowerBudget {
			return fmt.Errorf("sischedule: group %q needs power %d > budget %d", g.Name, c.GroupPower[gi], c.PowerBudget)
		}
	}
	return nil
}

// ValidateSchedule checks a finished schedule against the compiled
// constraints: no instant exceeds the power budget, every precedence
// edge is respected, and no two mutually exclusive groups overlap.
// Zero-duration slots are exempt throughout, mirroring the scheduler.
// groups must be the same slice the constraints were compiled against.
// A nil receiver validates trivially.
func (c *Constraints) ValidateSchedule(groups []*Group, s *Schedule) error {
	if c == nil {
		return nil
	}
	// slotOf[gi] is the slot of group gi, or -1 (group not in schedule).
	slotOf := make(map[*Group]int, len(groups))
	for si := range s.Slots {
		slotOf[s.Slots[si].Group] = si
	}
	slot := func(gi int32) *Slot {
		si, ok := slotOf[groups[gi]]
		if !ok {
			return nil
		}
		return &s.Slots[si]
	}
	overlaps := func(a, b *Slot) bool {
		return a != nil && b != nil && a.Time > 0 && b.Time > 0 &&
			a.Begin < b.End && b.Begin < a.End
	}
	if c.PowerBudget > 0 {
		for i := range s.Slots {
			probe := &s.Slots[i]
			if probe.Time <= 0 {
				continue
			}
			var inUse int64
			for gi := range groups {
				if sl := slot(int32(gi)); overlaps(sl, probe) && sl.Begin <= probe.Begin && probe.Begin < sl.End {
					inUse += c.GroupPower[gi]
				}
			}
			if inUse > c.PowerBudget {
				return fmt.Errorf("sischedule: power %d in use at t=%d exceeds budget %d", inUse, probe.Begin, c.PowerBudget)
			}
		}
	}
	for gi := range groups {
		sl := slot(int32(gi))
		if sl == nil || sl.Time <= 0 {
			continue
		}
		for _, p := range c.preds[gi] {
			psl := slot(p)
			if psl == nil || psl.Time <= 0 {
				continue
			}
			if psl.End > sl.Begin {
				return fmt.Errorf("sischedule: group %q starts at %d before predecessor %q ends at %d",
					groups[gi].Name, sl.Begin, groups[p].Name, psl.End)
			}
		}
		for _, e := range c.excl[gi] {
			if int(e) <= gi {
				continue // symmetric: check each pair once
			}
			if esl := slot(e); overlaps(sl, esl) {
				return fmt.Errorf("sischedule: mutually exclusive groups %q and %q overlap ([%d,%d) vs [%d,%d))",
					groups[gi].Name, groups[e].Name, sl.Begin, sl.End, esl.Begin, esl.End)
			}
		}
	}
	return nil
}
