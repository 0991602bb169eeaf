package compaction

import (
	"context"
	"sort"

	"sitam/internal/sifault"
)

// The scalar accumulator is the original per-care-position greedy merge
// state, kept as the reference implementation: the differential tests
// pin the production engine (engine.go) against it, and the compaction
// benchmark measures the word-parallel speedup over it.

// scalarAccumulator is the dense merge state for one greedy seed pass.
// Epoch marking avoids clearing the arrays between passes.
type scalarAccumulator struct {
	sym      []sifault.Symbol
	symEpoch []uint32
	drv      []int32
	drvEpoch []uint32
	epoch    uint32
	touched  []int32 // positions determined this epoch
	busUsed  []int32 // bus lines occupied this epoch
}

func newScalarAccumulator(nPos, nBus int) *scalarAccumulator {
	return &scalarAccumulator{
		sym:      make([]sifault.Symbol, nPos),
		symEpoch: make([]uint32, nPos),
		drv:      make([]int32, nBus),
		drvEpoch: make([]uint32, nBus),
	}
}

func (a *scalarAccumulator) reset() {
	a.epoch++
	a.touched = a.touched[:0]
	a.busUsed = a.busUsed[:0]
}

// compatible reports whether p can merge into the current accumulation.
func (a *scalarAccumulator) compatible(p *sifault.Pattern) bool {
	for _, c := range p.Care {
		if a.symEpoch[c.Pos] == a.epoch && a.sym[c.Pos] != c.Sym {
			return false
		}
	}
	for _, b := range p.Bus {
		if a.drvEpoch[b.Line] == a.epoch && a.drv[b.Line] != b.Driver {
			return false
		}
	}
	return true
}

// merge absorbs p; the caller must have checked compatible(p).
func (a *scalarAccumulator) merge(p *sifault.Pattern) {
	for _, c := range p.Care {
		if a.symEpoch[c.Pos] != a.epoch {
			a.symEpoch[c.Pos] = a.epoch
			a.sym[c.Pos] = c.Sym
			a.touched = append(a.touched, c.Pos)
		}
	}
	for _, b := range p.Bus {
		if a.drvEpoch[b.Line] != a.epoch {
			a.drvEpoch[b.Line] = a.epoch
			a.drv[b.Line] = b.Driver
			a.busUsed = append(a.busUsed, b.Line)
		}
	}
}

// pattern materializes the accumulated merge as a Pattern of the given
// total weight.
func (a *scalarAccumulator) pattern(weight int64) *sifault.Pattern {
	p := &sifault.Pattern{
		Care:       make([]sifault.Care, 0, len(a.touched)),
		VictimPos:  -1,
		VictimCore: -1,
		Weight:     int32(weight),
	}
	sort.Slice(a.touched, func(i, j int) bool { return a.touched[i] < a.touched[j] })
	for _, pos := range a.touched {
		p.Care = append(p.Care, sifault.Care{Pos: pos, Sym: a.sym[pos]})
	}
	sort.Slice(a.busUsed, func(i, j int) bool { return a.busUsed[i] < a.busUsed[j] })
	for _, l := range a.busUsed {
		p.Bus = append(p.Bus, sifault.BusUse{Line: l, Driver: a.drv[l]})
	}
	return p
}

// greedyScalar is the reference greedy clique cover on the scalar
// accumulator, byte-identical in output to the production bitset path.
func greedyScalar(ctx context.Context, sp *sifault.Space, patterns []*sifault.Pattern) ([]*sifault.Pattern, Stats, bool) {
	acc := newScalarAccumulator(sp.Total(), sp.BusWidth())
	remaining := make([]int, len(patterns))
	var original int64
	for i, p := range patterns {
		remaining[i] = i
		original += int64(p.Weight)
	}

	var out []*sifault.Pattern
	cut := false
	passes := 0
	for len(remaining) > 0 {
		if ctx.Err() != nil {
			cut = true
			for _, idx := range remaining {
				out = append(out, patterns[idx])
			}
			break
		}
		acc.reset()
		seed := patterns[remaining[0]]
		acc.merge(seed)
		weight := int64(seed.Weight)

		next := remaining[:0]
		for _, idx := range remaining[1:] {
			p := patterns[idx]
			if acc.compatible(p) {
				acc.merge(p)
				weight += int64(p.Weight)
			} else {
				next = append(next, idx)
			}
		}
		remaining = next
		out = append(out, acc.pattern(weight))
		passes++
	}
	return out, Stats{Original: original, Compacted: len(out), Passes: passes}, cut
}
