// Package compaction implements the "vertical" dimension of the paper's
// two-dimensional SI test-set compaction: merging compatible test
// patterns to reduce the pattern count.
//
// Two patterns are compatible when their symbol-wise intersection is
// non-empty at every WOC position (x merges with anything, determined
// symbols only with themselves) AND they do not occupy the same shared
// bus line from different core boundaries. Finding the minimum compacted
// set is the NP-complete clique covering problem on the compatibility
// graph; following the paper, the production path is a greedy heuristic
// that merges the first uncompacted pattern with every following
// compatible pattern on each pass. Reference exact and DSATUR-based
// covers are provided for small instances (tests and ablation benches).
//
// Pairwise compatibility implies set-wise mergeability here: at any
// position, pairwise-compatible patterns can only carry one distinct
// determined symbol, and on any bus line only one distinct driver — so
// every clique of the compatibility graph is a valid merged pattern.
package compaction

import (
	"context"
	"fmt"

	"sitam/internal/obs"
	"sitam/internal/sifault"
)

// Stats summarizes one compaction run.
type Stats struct {
	// Original is the pattern count before compaction (sum of weights
	// of the input patterns).
	Original int64

	// Compacted is the pattern count after compaction.
	Compacted int

	// Passes is the number of greedy seed passes (equals Compacted for
	// the greedy algorithm).
	Passes int
}

// Ratio returns Original/Compacted, the compaction ratio.
func (s Stats) Ratio() float64 {
	if s.Compacted == 0 {
		return 0
	}
	return float64(s.Original) / float64(s.Compacted)
}

// Greedy compacts patterns with the paper's heuristic: take the first
// uncompacted pattern as a seed and merge every following compatible
// pattern into it, repeating until all patterns are absorbed. Input
// patterns are not modified. The input order is the merge order, so the
// result is deterministic.
//
// Greedy is an anytime algorithm: the context is checked before each
// super-pass of the engine (every 64 seed passes at most), and on
// cancellation or deadline expiry the bins already materialized are
// followed by the remaining unmerged patterns as-is, in input order
// (sharing the input pattern values, which are never modified). The
// result is then a valid but less compacted cover of the same original
// pattern set; the returned bool reports whether compaction was cut
// short. A run cancelled before any work emits the input unchanged.
//
// The run is bracketed in a "compaction" phase span labeled with the
// group name, whose PhaseEnd carries the compacted pattern count; a cut
// emits a deadline_hit event. A nil sink traces nothing.
//
// First-fit equivalence. The serial greedy — one seed pass per output
// pattern, each streaming the whole remaining set — is exactly
// first-fit binning: every candidate joins the FIRST seed pass that
// accepts it. First-fit over B open accumulators in one stream
// reproduces it bit for bit: when candidate X is reached, accumulator b
// holds precisely the candidates before X that were rejected by
// accumulators 0..b-1 and accepted by b — the same prefix state the
// serial pass b would hold when checking X — and a candidate rejected
// by every open accumulator opens the next one, which is the serial
// rule "the first reject of a pass seeds the next pass". So B serial
// passes fuse into ONE stream over the remaining set; the conflict-index
// engine (engine.go) runs those fused super-passes and answers most
// accumulator conflicts from bitmask indexes instead of plane probes.
func Greedy(ctx context.Context, sp *sifault.Space, patterns []*sifault.Pattern, sink obs.Sink, group string) ([]*sifault.Pattern, Stats, bool) {
	span := obs.Span(sink, "compaction")
	var original int64
	for _, p := range patterns {
		original += int64(p.Weight)
	}
	var out []*sifault.Pattern
	passes, cut := 0, false
	if len(patterns) > 0 {
		var rest []*sifault.Pattern
		out, rest, cut = newFFEngine(sp, patterns).run(ctx)
		passes = len(out)
		out = append(out, rest...)
	}
	if sink != nil {
		if cut {
			sink.Emit(obs.Event{Type: obs.DeadlineHit, Phase: "compaction", Group: group, Cause: obs.CtxCause(ctx.Err())})
		}
		span.End(0, int64(len(out)))
	}
	return out, Stats{Original: original, Compacted: len(out), Passes: passes}, cut
}

// Compatible reports whether two patterns may be merged, applying both
// the symbol intersection rule and the shared-bus-line driver rule.
func Compatible(a, b *sifault.Pattern) bool {
	// Merge-join over the sorted care lists.
	i, j := 0, 0
	for i < len(a.Care) && j < len(b.Care) {
		switch {
		case a.Care[i].Pos < b.Care[j].Pos:
			i++
		case a.Care[i].Pos > b.Care[j].Pos:
			j++
		default:
			if !a.Care[i].Sym.CompatibleWith(b.Care[j].Sym) {
				return false
			}
			i++
			j++
		}
	}
	i, j = 0, 0
	for i < len(a.Bus) && j < len(b.Bus) {
		switch {
		case a.Bus[i].Line < b.Bus[j].Line:
			i++
		case a.Bus[i].Line > b.Bus[j].Line:
			j++
		default:
			if a.Bus[i].Driver != b.Bus[j].Driver {
				return false
			}
			i++
			j++
		}
	}
	return true
}

// Merge returns the intersection pattern of a and b. It fails if the
// patterns are incompatible.
func Merge(a, b *sifault.Pattern) (*sifault.Pattern, error) {
	if !Compatible(a, b) {
		return nil, fmt.Errorf("compaction: patterns are incompatible")
	}
	m := &sifault.Pattern{VictimPos: -1, VictimCore: -1, Weight: a.Weight + b.Weight}
	m.Care = make([]sifault.Care, 0, len(a.Care)+len(b.Care))
	i, j := 0, 0
	for i < len(a.Care) || j < len(b.Care) {
		switch {
		case j >= len(b.Care) || (i < len(a.Care) && a.Care[i].Pos < b.Care[j].Pos):
			m.Care = append(m.Care, a.Care[i])
			i++
		case i >= len(a.Care) || a.Care[i].Pos > b.Care[j].Pos:
			m.Care = append(m.Care, b.Care[j])
			j++
		default:
			m.Care = append(m.Care, sifault.Care{Pos: a.Care[i].Pos, Sym: a.Care[i].Sym.Intersect(b.Care[j].Sym)})
			i++
			j++
		}
	}
	m.Bus = make([]sifault.BusUse, 0, len(a.Bus)+len(b.Bus))
	i, j = 0, 0
	for i < len(a.Bus) || j < len(b.Bus) {
		switch {
		case j >= len(b.Bus) || (i < len(a.Bus) && a.Bus[i].Line < b.Bus[j].Line):
			m.Bus = append(m.Bus, a.Bus[i])
			i++
		case i >= len(a.Bus) || a.Bus[i].Line > b.Bus[j].Line:
			m.Bus = append(m.Bus, b.Bus[j])
			j++
		default:
			m.Bus = append(m.Bus, a.Bus[i])
			i++
			j++
		}
	}
	return m, nil
}
