package sifault

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"sitam/internal/soc"
)

// refGenerate is the reference form of GenerateCtx: the Section 5
// protocol written out with a used-position map, a final sort of the
// care list and rand.Perm for the bus lines. It fixes the draw-order
// contract the production generator must reproduce bit for bit.
func refGenerate(s *soc.SOC, cfg GenConfig) []*Pattern {
	cfg = cfg.withDefaults()
	sp := NewSpace(s)
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]*Pattern, 0, cfg.N)
	for i := 0; i < cfg.N; i++ {
		out = append(out, refGenOne(sp, cfg, rng))
	}
	return out
}

func refGenOne(sp *Space, cfg GenConfig, rng *rand.Rand) *Pattern {
	victim := int32(rng.Intn(sp.Total()))
	victimCore := sp.CoreAt(victim)
	start, n := sp.Range(victimCore)
	vIdx := 0
	for i, id := range sp.CoreOrder() {
		if id == victimCore {
			vIdx = i
		}
	}
	extRanges, extTotal := externalRanges(sp, vIdx, cfg.ExternalLocality)

	na := cfg.MinAggressors + rng.Intn(cfg.MaxAggressors-cfg.MinAggressors+1)
	maxExt := cfg.MaxExternal
	if maxExt < 0 || maxExt > na {
		maxExt = na
	}
	if extTotal == 0 {
		maxExt = 0
	}
	nExt := 0
	if maxExt > 0 && rng.Float64() < cfg.ExternalProb {
		nExt = 1 + rng.Intn(maxExt)
	}
	nInt := na - nExt
	if avail := n - 1; nInt > avail {
		nInt = avail
		nExt = na - nInt
	}
	if nExt > extTotal {
		nExt = extTotal // otherwise the redraw loop below never ends
	}

	kind := maFaultKinds[rng.Intn(len(maFaultKinds))]
	used := map[int32]struct{}{victim: {}}
	care := []Care{{Pos: victim, Sym: kind.victim}}
	pick := func(lo, span int) int32 {
		for {
			p := int32(lo + rng.Intn(span))
			if _, dup := used[p]; !dup {
				used[p] = struct{}{}
				return p
			}
		}
	}
	for j := 0; j < nInt; j++ {
		care = append(care, Care{Pos: pick(start, n), Sym: kind.aggressor})
	}
	for j := 0; j < nExt; j++ {
		for {
			off := rng.Intn(extTotal)
			var p int32
			for _, r := range extRanges {
				if off < r.n {
					p = int32(r.start + off)
					break
				}
				off -= r.n
			}
			if _, dup := used[p]; !dup {
				used[p] = struct{}{}
				care = append(care, Care{Pos: p, Sym: kind.aggressor})
				break
			}
		}
	}
	if cfg.QuiesceProb > 0 {
		for off := 0; off < n; off++ {
			pos := int32(start + off)
			if _, taken := used[pos]; taken {
				continue
			}
			if cfg.QuiesceProb < 1 && rng.Float64() >= cfg.QuiesceProb {
				continue
			}
			sym := Zero
			if rng.Intn(2) == 1 {
				sym = One
			}
			care = append(care, Care{Pos: pos, Sym: sym})
		}
	}
	sort.Slice(care, func(a, b int) bool { return care[a].Pos < care[b].Pos })

	p := &Pattern{Care: care, VictimPos: victim, VictimCore: int32(victimCore), Weight: 1}
	if sp.BusWidth() > 0 && rng.Float64() < cfg.BusProb {
		nLines := 1 + rng.Intn(na)
		if nLines > sp.BusWidth() {
			nLines = sp.BusWidth()
		}
		lines := rng.Perm(sp.BusWidth())[:nLines]
		sort.Ints(lines)
		for _, l := range lines {
			p.Bus = append(p.Bus, BusUse{Line: int32(l), Driver: int32(victimCore)})
		}
	}
	return p
}

// checkMatchesReference generates cfg with GenerateCtx and the
// reference and fails on the first pattern that differs or is invalid.
func checkMatchesReference(t *testing.T, name string, s *soc.SOC, cfg GenConfig) {
	t.Helper()
	got, partial, err := GenerateCtx(context.Background(), s, cfg)
	if err != nil || partial {
		t.Fatalf("%s: GenerateCtx: partial=%v err=%v", name, partial, err)
	}
	want := refGenerate(s, cfg)
	if len(got) != len(want) {
		t.Fatalf("%s: %d patterns, reference %d", name, len(got), len(want))
	}
	sp := NewSpace(s)
	for i := range got {
		if err := got[i].Validate(sp); err != nil {
			t.Fatalf("%s: pattern %d: %v", name, i, err)
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: pattern %d differs from the reference:\n got  %+v\n want %+v", name, i, *got[i], *want[i])
		}
	}
}

// narrowSOC has a one-WOC and a two-WOC core, so most victims spill
// their aggressors outside the core, and its small neighbors leave
// fewer external positions than aggressors.
func narrowSOC(busWidth int) *soc.SOC {
	return &soc.SOC{Name: "narrow", BusWidth: busWidth, CoreList: []*soc.Core{
		{ID: 1, Outputs: 1}, {ID: 2, Outputs: 2}, {ID: 3}, {ID: 4, Outputs: 9}, {ID: 5, Bidirs: 1},
	}}
}

func TestGenerateMatchesReference(t *testing.T) {
	for _, name := range soc.Benchmarks() {
		s := soc.MustLoadBenchmark(name)
		for _, seed := range []int64{1, 7, -3} {
			checkMatchesReference(t, name, s, GenConfig{N: 1500, Seed: seed})
		}
	}
	p := soc.MustLoadBenchmark("p34392")
	corners := map[string]GenConfig{
		"QuiesceProb -1":      {QuiesceProb: -1},
		"QuiesceProb 0.5":     {QuiesceProb: 0.5},
		"ExternalLocality -1": {ExternalLocality: -1},
		"MaxExternal -1":      {MaxExternal: -1, ExternalProb: 0.9},
		"BusProb 1":           {BusProb: 1},
		"many aggressors":     {MinAggressors: 5, MaxAggressors: 40, MaxExternal: -1, BusProb: 1},
	}
	for name, cfg := range corners {
		cfg.N, cfg.Seed = 1500, 11
		checkMatchesReference(t, name, p, cfg)
	}
	// Narrow cores spill into external aggressors; bus widths below and
	// above Na.
	for _, bus := range []int{0, 1, 2, 64} {
		for _, cfg := range []GenConfig{{BusProb: 1}, {MaxExternal: -1, QuiesceProb: 0.5}, {ExternalLocality: 1}} {
			cfg.N, cfg.Seed = 1500, int64(bus)
			checkMatchesReference(t, "narrow", narrowSOC(bus), cfg)
		}
	}
}

// TestGenerateFewExternalPositions pins the termination of the
// external-aggressor draw: a wide victim core whose neighbors offer
// fewer positions than drawn external aggressors takes all of them.
func TestGenerateFewExternalPositions(t *testing.T) {
	s := &soc.SOC{Name: "lopsided", CoreList: []*soc.Core{{ID: 1, Outputs: 30}, {ID: 2, Outputs: 1}}}
	ps, _, err := GenerateCtx(context.Background(), s, GenConfig{N: 300, Seed: 5, MaxExternal: -1, ExternalProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkMatchesReference(t, "lopsided", s, GenConfig{N: 300, Seed: 5, MaxExternal: -1, ExternalProb: 1})
	for i, p := range ps {
		if p.VictimCore == 1 && p.SymbolAt(30) == X {
			t.Fatalf("pattern %d: victim in core 1 without the aggressor on core 2", i)
		}
	}
}

// FuzzGenerateMatchesReference drives the generator and its reference
// over fuzzed seeds, configuration corners and small SOC shapes
// (including zero-width and one-WOC cores).
func FuzzGenerateMatchesReference(f *testing.F) {
	f.Add(int64(1), -1.0, int8(0), int8(0), 0.0, []byte{1, 2, 0, 9, 1}, uint8(4))
	f.Add(int64(7), 0.5, int8(-1), int8(-1), 1.0, []byte{30, 1}, uint8(2))
	f.Add(int64(-3), 0.0, int8(1), int8(3), -1.0, []byte{0, 5, 0, 5, 0}, uint8(64))
	f.Add(int64(9), 1.0, int8(9), int8(1), 0.5, []byte{2}, uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, quiesce float64, locality, maxExt int8, busProb float64, widths []byte, bus uint8) {
		s := &soc.SOC{Name: "fuzz", BusWidth: int(bus % 80)}
		for i, w := range widths {
			if i == 12 {
				break
			}
			s.CoreList = append(s.CoreList, &soc.Core{ID: i + 1, Outputs: int(w % 40)})
		}
		if s.TotalWOC() < 2 {
			t.Skip()
		}
		checkMatchesReference(t, "fuzz", s, GenConfig{
			N: 200, Seed: seed, QuiesceProb: quiesce, ExternalLocality: int(locality),
			MaxExternal: int(maxExt), BusProb: busProb,
		})
	})
}
