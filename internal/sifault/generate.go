package sifault

import (
	"context"
	"fmt"
	"math/rand"

	"sitam/internal/soc"
)

// GenConfig parameterizes the random SI pattern generator of Section 5 of
// the paper: each pattern has one victim and Na random aggressors with
// 2 <= Na <= 6, at most two aggressors outside the victim core's
// boundary, and occupies the shared bus with probability BusProb (with
// 1..Na occupied lines).
type GenConfig struct {
	// N is the number of patterns to generate (the paper's N_r).
	N int

	// Seed drives all randomness; equal seeds give equal pattern sets.
	Seed int64

	// MinAggressors and MaxAggressors bound Na. Zero values default to
	// the paper's 2 and 6.
	MinAggressors int
	MaxAggressors int

	// MaxExternal is the maximum number of aggressors outside the
	// victim core's boundary. A negative value means no limit; zero
	// defaults to the paper's 2.
	MaxExternal int

	// BusProb is the probability that a pattern uses the shared bus.
	// A negative value means 0; the zero value defaults to the paper's
	// 0.5.
	BusProb float64

	// QuiesceProb is the probability that each background (non-victim,
	// non-aggressor) WOC of the victim's core is held at a steady
	// random 0/1 during the pattern, rather than left as a don't-care.
	// Holding the victim core's other outputs quiescent prevents
	// uncontrolled self-noise during the at-speed transition, and is
	// what Table 1's steady 0/1 entries depict. A negative value means
	// 0 (fully sparse patterns); the zero value defaults to 1.0.
	QuiesceProb float64

	// ExternalLocality bounds how far (in core-list order, a proxy for
	// layout adjacency) an external aggressor's core may be from the
	// victim's core: crosstalk couples only interconnects that are
	// physically routed together, so aggressors outside the victim
	// core's boundary come from neighboring cores (cf. the locality
	// factor of the reduced MT model). A negative value means
	// unlimited (uniform over all other cores); the zero value
	// defaults to 2 cores on either side.
	ExternalLocality int

	// ExternalProb is the probability that a pattern has any
	// aggressors outside the victim core's boundary at all (the paper
	// allows "at most two"; most coupling is within one core's own
	// boundary region). When it strikes, 1..MaxExternal external
	// aggressors are drawn. A negative value means 0; the zero value
	// defaults to 0.3.
	ExternalProb float64
}

func (c GenConfig) withDefaults() GenConfig {
	if c.MinAggressors == 0 {
		c.MinAggressors = 2
	}
	if c.MaxAggressors == 0 {
		c.MaxAggressors = 6
	}
	if c.MaxExternal == 0 {
		c.MaxExternal = 2
	}
	if c.BusProb == 0 {
		c.BusProb = 0.5
	}
	if c.BusProb < 0 {
		c.BusProb = 0
	}
	if c.QuiesceProb == 0 {
		c.QuiesceProb = 1.0
	}
	if c.QuiesceProb < 0 {
		c.QuiesceProb = 0
	}
	if c.ExternalLocality == 0 {
		c.ExternalLocality = 2
	}
	if c.ExternalProb == 0 {
		c.ExternalProb = 0.3
	}
	if c.ExternalProb < 0 {
		c.ExternalProb = 0
	}
	return c
}

// maFaultKinds enumerates the six maximal-aggressor fault types: positive
// and negative glitch on a quiescent victim, rising and falling delay
// (aggressors opposing the victim) and rising and falling speedup
// (aggressors following the victim).
var maFaultKinds = [6]struct{ victim, aggressor Symbol }{
	{Zero, Rise}, // positive glitch
	{One, Fall},  // negative glitch
	{Rise, Fall}, // rising delay
	{Fall, Rise}, // falling delay
	{Rise, Rise}, // rising speedup
	{Fall, Fall}, // falling speedup
}

// GenerateCtx produces cfg.N random SI test patterns for s, following
// the experimental protocol of Section 5. Victim interconnects are drawn
// uniformly over all WOC positions (so cores with wider boundaries see
// proportionally more victims); internal aggressors are distinct WOCs of
// the victim core, external aggressors distinct WOCs of other cores.
//
// It is an anytime algorithm: the context is polled every 512 patterns,
// and on cancellation or deadline expiry the prefix generated so far is
// returned with the partial flag set and a nil error. The prefix is
// exactly what a full run with the same seed would have produced first,
// so downstream consumers see a smaller but otherwise identical
// workload. If the context fires before any pattern was generated, the
// context's error is returned instead.
func GenerateCtx(ctx context.Context, s *soc.SOC, cfg GenConfig) ([]*Pattern, bool, error) {
	cfg = cfg.withDefaults()
	if cfg.N < 0 {
		return nil, false, fmt.Errorf("sifault: negative pattern count %d", cfg.N)
	}
	if cfg.MinAggressors < 1 || cfg.MaxAggressors < cfg.MinAggressors {
		return nil, false, fmt.Errorf("sifault: bad aggressor bounds [%d,%d]", cfg.MinAggressors, cfg.MaxAggressors)
	}
	sp := NewSpace(s)
	if sp.Total() < 2 {
		return nil, false, fmt.Errorf("sifault: SOC has %d WOC positions; need at least 2", sp.Total())
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	g := newGenerator(sp, cfg)
	patterns := make([]*Pattern, 0, cfg.N)
	for i := 0; i < cfg.N; i++ {
		if i > 0 && i&511 == 0 && ctx.Err() != nil {
			return patterns, true, nil
		}
		patterns = append(patterns, g.next())
	}
	return patterns, false, nil
}

// Arena chunk sizes, in elements. Patterns of one run share chunks, so
// a run makes a handful of large allocations instead of three small
// ones per pattern.
const (
	patternChunk = 1 << 12
	careChunk    = 1 << 14
	busChunk     = 1 << 12
)

// generator draws the patterns of one GenerateCtx run.
//
// Draw-order contract: next consumes the random source in a fixed
// order — victim position,
// Na, the external-aggressor coin and count, the fault kind, the
// internal aggressors (redrawing duplicates), the external aggressors
// (redrawing duplicates), one coin and one value per quiesced
// background WOC in position order, then the bus coin, the line count
// and a math/rand.Perm-order permutation of the bus lines. Equal seeds
// therefore give equal pattern sets across implementations; the
// map-and-sort reference form in generate_test.go pins it.
//
// The victim core's block is built in a dense scratch (victim, internal
// aggressors and quiesced background), the few external aggressors in
// a small insertion-sorted list, and the care list is emitted in
// position order by merging the two, so no pattern needs a sort.
type generator struct {
	sp  *Space
	cfg GenConfig
	rng *rand.Rand

	// Per-block external-aggressor ranges and their position counts.
	ext      [][]posRange
	extTotal []int

	block []Symbol // victim block scratch; all X between patterns
	exts  []int32  // external aggressor positions, ascending
	perm  []int    // bus line permutation scratch

	// Unused tails of the current arena chunks.
	patterns []Pattern
	care     []Care
	bus      []BusUse
}

func newGenerator(sp *Space, cfg GenConfig) *generator {
	nb := len(sp.order)
	g := &generator{
		sp:       sp,
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		ext:      make([][]posRange, nb),
		extTotal: make([]int, nb),
		perm:     make([]int, sp.busWidth),
	}
	widest := 0
	for b := 0; b < nb; b++ {
		g.ext[b], g.extTotal[b] = externalRanges(sp, b, cfg.ExternalLocality)
		widest = max(widest, sp.starts[b+1]-sp.starts[b])
	}
	g.block = make([]Symbol, widest)
	return g
}

// carve returns the next k elements of the chunked arena *a with their
// capacity capped at k, starting a new chunk of max(chunk, k) elements
// when the current one is exhausted.
func carve[T any](a *[]T, k, chunk int) []T {
	if cap(*a)-len(*a) < k {
		*a = make([]T, 0, max(chunk, k))
	}
	n := len(*a)
	*a = (*a)[:n+k]
	return (*a)[n : n+k : n+k]
}

// next draws one pattern.
func (g *generator) next() *Pattern {
	sp, cfg, rng := g.sp, &g.cfg, g.rng
	victim := int32(rng.Intn(sp.Total()))
	vb := sp.blockAt(victim)
	victimCore := int32(sp.order[vb])
	start, n := sp.starts[vb], sp.starts[vb+1]-sp.starts[vb]

	// External aggressors come from cores within cfg.ExternalLocality
	// of the victim's core in layout order (a ring), or from all other
	// cores when the locality is unlimited.
	extRanges, extTotal := g.ext[vb], g.extTotal[vb]

	na := cfg.MinAggressors + rng.Intn(cfg.MaxAggressors-cfg.MinAggressors+1)
	maxExt := cfg.MaxExternal
	if maxExt < 0 || maxExt > na {
		maxExt = na
	}
	if extTotal == 0 {
		maxExt = 0 // single-core SOC: no external positions exist
	}
	nExt := 0
	if maxExt > 0 && rng.Float64() < cfg.ExternalProb {
		nExt = 1 + rng.Intn(maxExt)
	}
	nInt := na - nExt
	if avail := n - 1; nInt > avail {
		// Victim core boundary too narrow: spill to external aggressors.
		nInt = avail
		nExt = na - nInt
	}
	// Fewer external positions than aggressors: take them all rather
	// than redraw forever.
	nExt = min(nExt, extTotal)

	kind := maFaultKinds[rng.Intn(len(maFaultKinds))]
	block := g.block[:n]
	block[int(victim)-start] = kind.victim
	for j := 0; j < nInt; j++ {
		for {
			off := rng.Intn(n)
			if block[off] == X {
				block[off] = kind.aggressor
				break
			}
		}
	}
	exts := g.exts[:0]
	for j := 0; j < nExt; j++ {
		// Uniform over the allowed external positions.
		for added := false; !added; {
			off := rng.Intn(extTotal)
			var p int32
			for _, r := range extRanges {
				if off < r.n {
					p = int32(r.start + off)
					break
				}
				off -= r.n
			}
			exts, added = insertSorted(exts, p)
		}
	}
	g.exts = exts
	nCare := 1 + nInt + nExt
	// Quiesce the remaining outputs of the victim's core at steady
	// random background values (see GenConfig.QuiesceProb).
	if cfg.QuiesceProb > 0 {
		for off, sym := range block {
			if sym != X {
				continue
			}
			if cfg.QuiesceProb < 1 && rng.Float64() >= cfg.QuiesceProb {
				continue
			}
			block[off] = Zero
			if rng.Intn(2) == 1 {
				block[off] = One
			}
			nCare++
		}
	}

	// Emit in position order: externals below the block, the block
	// (clearing the scratch), externals above it.
	care := carve(&g.care, nCare, careChunk)
	k, e := 0, 0
	for ; e < len(exts) && int(exts[e]) < start; e++ {
		care[k] = Care{Pos: exts[e], Sym: kind.aggressor}
		k++
	}
	for off, sym := range block {
		if sym != X {
			care[k] = Care{Pos: int32(start + off), Sym: sym}
			k++
			block[off] = X
		}
	}
	for ; e < len(exts); e++ {
		care[k] = Care{Pos: exts[e], Sym: kind.aggressor}
		k++
	}

	p := &carve(&g.patterns, 1, min(cfg.N, patternChunk))[0]
	*p = Pattern{Care: care, VictimPos: victim, VictimCore: victimCore, Weight: 1}
	if sp.busWidth > 0 && rng.Float64() < cfg.BusProb {
		nLines := min(1+rng.Intn(na), sp.busWidth)
		// rand.Perm, inlined to reuse the scratch: same draws, same order.
		perm := g.perm
		for i := range perm {
			j := rng.Intn(i + 1)
			perm[i] = perm[j]
			perm[j] = i
		}
		lines := perm[:nLines]
		for i := 1; i < len(lines); i++ {
			for j := i; j > 0 && lines[j] < lines[j-1]; j-- {
				lines[j], lines[j-1] = lines[j-1], lines[j]
			}
		}
		p.Bus = carve(&g.bus, nLines, busChunk)
		for i, l := range lines {
			p.Bus[i] = BusUse{Line: int32(l), Driver: victimCore}
		}
	}
	return p
}

// insertSorted inserts p into the ascending list s, reporting false
// (and leaving s unchanged) when p is already present.
func insertSorted(s []int32, p int32) ([]int32, bool) {
	i := len(s)
	for i > 0 && s[i-1] > p {
		i--
	}
	if i > 0 && s[i-1] == p {
		return s, false
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = p
	return s, true
}

// posRange is one contiguous run of allowed external positions.
type posRange struct{ start, n int }

// externalRanges returns the WOC position ranges of the cores within
// the given locality (in core order, as a ring) of the victim block
// (a position-order core index), excluding the victim core itself,
// together with the total position count. A negative locality allows
// every other core.
func externalRanges(sp *Space, vIdx, locality int) ([]posRange, int) {
	nc := len(sp.order)
	var ranges []posRange
	total := 0
	add := func(idx int) {
		start, n := sp.starts[idx], sp.starts[idx+1]-sp.starts[idx]
		if n == 0 {
			return
		}
		ranges = append(ranges, posRange{start, n})
		total += n
	}
	if locality < 0 || 2*locality+1 >= nc {
		for i := 0; i < nc; i++ {
			if i != vIdx {
				add(i)
			}
		}
		return ranges, total
	}
	for d := 1; d <= locality; d++ {
		add((vIdx + d) % nc)
		add((vIdx - d + nc) % nc)
	}
	return ranges, total
}

// MACount returns the test-vector-pair count of the maximal-aggressor
// fault model for n victim interconnects: 6 faults per victim.
func MACount(n int) int64 { return 6 * int64(n) }

// ReducedMTCount returns the approximate pattern count of the reduced
// multiple-transition fault model with locality factor k, per Tehranipour
// et al.: roughly n · 2^(2k+2).
func ReducedMTCount(n, k int) int64 {
	return int64(n) << uint(2*k+2)
}

// SerialExTestCycles estimates the serial (1-bit TAM) external test time
// for the given pattern count over an SOC whose cores expose totalCells
// boundary cells: every pattern shifts through all boundary cells once.
func SerialExTestCycles(patterns, totalCells int64) int64 {
	return patterns * totalCells
}
