package topology

import (
	"context"
	"testing"

	"sitam/internal/compaction"
	"sitam/internal/sifault"
	"sitam/internal/soc"
)

func busSOC(t *testing.T, cores int) *soc.SOC {
	t.Helper()
	s := &soc.SOC{Name: "bus", BusWidth: 32}
	for id := 1; id <= cores; id++ {
		s.CoreList = append(s.CoreList, &soc.Core{
			ID: id, Inputs: 80, Outputs: 80, ScanChains: []int{20}, Patterns: 10,
		})
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRandomTopologyValid(t *testing.T) {
	s := busSOC(t, 10)
	topo, err := Random(s, RandomConfig{FanOut: 2, Width: 32, BusFraction: 0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Section 2: 10 cores, fan-out 2, 32-bit connections -> 640 nets.
	if len(topo.Nets) != 640 {
		t.Errorf("nets = %d, want 640", len(topo.Nets))
	}
	if err := topo.Validate(); err != nil {
		t.Error(err)
	}
}

func TestRandomTopologyErrors(t *testing.T) {
	s := busSOC(t, 3)
	if _, err := Random(s, RandomConfig{FanOut: 0, Width: 8}, 1); err == nil {
		t.Error("accepted FanOut=0")
	}
	one := busSOC(t, 1)
	if _, err := Random(one, RandomConfig{FanOut: 1, Width: 8}, 1); err == nil {
		t.Error("accepted single-core SOC")
	}
}

func TestValidateCatchesBadNets(t *testing.T) {
	s := busSOC(t, 2)
	cases := map[string]*Topology{
		"empty":          {SOC: s},
		"unknown driver": {SOC: s, Nets: []Net{{Driver: Terminal{Core: 9, Index: 0}, ReceiverCores: []int{1}, BusLine: -1}}},
		"driver index":   {SOC: s, Nets: []Net{{Driver: Terminal{Core: 1, Index: 999}, ReceiverCores: []int{2}, BusLine: -1}}},
		"no receivers":   {SOC: s, Nets: []Net{{Driver: Terminal{Core: 1, Index: 0}, BusLine: -1}}},
		"bad bus line":   {SOC: s, Nets: []Net{{Driver: Terminal{Core: 1, Index: 0}, ReceiverCores: []int{2}, BusLine: 77}}},
		"double driver": {SOC: s, Nets: []Net{
			{Driver: Terminal{Core: 1, Index: 0}, ReceiverCores: []int{2}, BusLine: -1},
			{Driver: Terminal{Core: 1, Index: 0}, ReceiverCores: []int{2}, BusLine: -1},
		}},
	}
	for name, topo := range cases {
		if err := topo.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestNeighborsWindow(t *testing.T) {
	s := busSOC(t, 2)
	topo := &Topology{SOC: s}
	for i := 0; i < 10; i++ {
		topo.Nets = append(topo.Nets, Net{
			Driver: Terminal{Core: 1 + i%2, Index: i / 2}, ReceiverCores: []int{2 - i%2}, BusLine: -1, Track: i,
		})
	}
	nb := topo.Neighbors(5, 2)
	want := []int{3, 4, 6, 7}
	if len(nb) != len(want) {
		t.Fatalf("Neighbors(5,2) = %v, want %v", nb, want)
	}
	for i := range nb {
		if nb[i] != want[i] {
			t.Fatalf("Neighbors(5,2) = %v, want %v", nb, want)
		}
	}
	if got := topo.Neighbors(0, 0); len(got) != 0 {
		t.Errorf("Neighbors(0,0) = %v, want none", got)
	}
}

func TestMAPatternCount(t *testing.T) {
	s := busSOC(t, 10)
	topo, err := Random(s, RandomConfig{FanOut: 2, Width: 32, BusFraction: 0.5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	patterns, err := MAPatterns(topo, 3)
	if err != nil {
		t.Fatal(err)
	}
	// 6 per victim net: the MA model's 6N (Section 2: 3840 for N=640).
	if got, want := len(patterns), 6*len(topo.Nets); got != want {
		t.Errorf("MA patterns = %d, want %d", got, want)
	}
	if int64(len(patterns)) != sifault.MACount(len(topo.Nets)) {
		t.Errorf("count disagrees with sifault.MACount")
	}
	sp := sifault.NewSpace(s)
	for i, p := range patterns {
		if err := p.Validate(sp); err != nil {
			t.Fatalf("pattern %d: %v", i, err)
		}
	}
}

func TestMAPatternsAggressorsUnison(t *testing.T) {
	s := busSOC(t, 4)
	topo, err := Random(s, RandomConfig{FanOut: 1, Width: 8}, 3)
	if err != nil {
		t.Fatal(err)
	}
	patterns, err := MAPatterns(topo, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range patterns {
		// All aggressor symbols in an MA pattern are identical.
		var aggr sifault.Symbol = sifault.X
		for _, c := range p.Care {
			if c.Pos == p.VictimPos {
				continue
			}
			if aggr == sifault.X {
				aggr = c.Sym
			} else if c.Sym != aggr {
				t.Fatalf("pattern %d: mixed aggressor symbols", i)
			}
		}
	}
}

func TestReducedMTPatternCount(t *testing.T) {
	s := busSOC(t, 4)
	topo, err := Random(s, RandomConfig{FanOut: 1, Width: 10}, 4)
	if err != nil {
		t.Fatal(err)
	}
	k := 2
	patterns, err := ReducedMTPatterns(topo, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	bound := sifault.ReducedMTCount(len(topo.Nets), k)
	if int64(len(patterns)) > bound {
		t.Errorf("reduced MT patterns %d exceed bound %d", len(patterns), bound)
	}
	// Interior nets have full 2k windows, so the total should be close
	// to the bound (boundary nets have smaller windows).
	if float64(len(patterns)) < 0.5*float64(bound) {
		t.Errorf("reduced MT patterns %d far below bound %d", len(patterns), bound)
	}
	sp := sifault.NewSpace(s)
	for i, p := range patterns {
		if err := p.Validate(sp); err != nil {
			t.Fatalf("pattern %d: %v", i, err)
		}
	}
}

func TestReducedMTCap(t *testing.T) {
	s := busSOC(t, 4)
	topo, err := Random(s, RandomConfig{FanOut: 1, Width: 10}, 4)
	if err != nil {
		t.Fatal(err)
	}
	patterns, err := ReducedMTPatterns(topo, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(patterns) != 100 {
		t.Errorf("cap ignored: %d patterns", len(patterns))
	}
	if _, err := ReducedMTPatterns(topo, 20, 0); err == nil {
		t.Error("accepted absurd locality factor")
	}
}

func TestTopologyPatternsFeedCompaction(t *testing.T) {
	// End-to-end: MA test set from a topology compacts like any other
	// SI test set.
	s := busSOC(t, 6)
	topo, err := Random(s, RandomConfig{FanOut: 2, Width: 16, BusFraction: 0.5}, 5)
	if err != nil {
		t.Fatal(err)
	}
	patterns, err := MAPatterns(topo, 3)
	if err != nil {
		t.Fatal(err)
	}
	sp := sifault.NewSpace(s)
	out, stats, _ := compaction.Greedy(context.Background(), sp, patterns, nil, "")
	if stats.Compacted >= len(patterns) {
		t.Errorf("no compaction achieved: %d -> %d", len(patterns), stats.Compacted)
	}
	for _, p := range out {
		if err := p.Validate(sp); err != nil {
			t.Fatal(err)
		}
	}
}
