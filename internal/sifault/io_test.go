package sifault

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"sitam/internal/soc"
)

func TestPatternRoundTrip(t *testing.T) {
	s := soc.MustLoadBenchmark("p34392")
	sp := NewSpace(s)
	patterns, _, err := GenerateCtx(context.Background(), s, GenConfig{N: 150, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePatterns(&buf, sp, patterns); err != nil {
		t.Fatal(err)
	}
	total, bus, got, err := ReadPatterns(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if total != sp.Total() || bus != sp.BusWidth() {
		t.Errorf("space (%d,%d), want (%d,%d)", total, bus, sp.Total(), sp.BusWidth())
	}
	if len(got) != len(patterns) {
		t.Fatalf("%d patterns, want %d", len(got), len(patterns))
	}
	for i := range got {
		a, b := patterns[i], got[i]
		if a.Weight != b.Weight || a.VictimPos != b.VictimPos || a.VictimCore != b.VictimCore {
			t.Fatalf("pattern %d header mismatch", i)
		}
		if len(a.Care) != len(b.Care) || len(a.Bus) != len(b.Bus) {
			t.Fatalf("pattern %d length mismatch", i)
		}
		for j := range a.Care {
			if a.Care[j] != b.Care[j] {
				t.Fatalf("pattern %d care %d: %v vs %v", i, j, a.Care[j], b.Care[j])
			}
		}
		for j := range a.Bus {
			if a.Bus[j] != b.Bus[j] {
				t.Fatalf("pattern %d bus %d mismatch", i, j)
			}
		}
	}
}

func TestReadPatternsErrors(t *testing.T) {
	cases := map[string]string{
		"no header":     "p w=1 care=0:u\n",
		"bad directive": "space 10 4\nq w=1\n",
		"bad weight":    "space 10 4\np w=zero\n",
		"bad symbol":    "space 10 4\np w=1 care=0:z\n",
		"pos range":     "space 10 4\np w=1 care=99:u\n",
		"bus range":     "space 10 4\np w=1 bus=9:1\n",
		"dup care":      "space 10 4\np w=1 care=3:u,3:u\n",
		"bad field":     "space 10 4\np bogus\n",
		"unknown key":   "space 10 4\np zz=1\n",
		"bad space":     "space ten 4\n",
	}
	for name, text := range cases {
		if _, _, _, err := ReadPatterns(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted %q", name, text)
		}
	}
}

func TestReadPatternsMinimal(t *testing.T) {
	text := "# comment\nspace 10 4\n\np w=2 v=3 vc=1 care=3:u,4:0 bus=0:1\np\n"
	total, bus, ps, err := ReadPatterns(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if total != 10 || bus != 4 || len(ps) != 2 {
		t.Fatalf("got (%d,%d,%d patterns)", total, bus, len(ps))
	}
	if ps[0].Weight != 2 || ps[0].Care[0].Sym != Rise || ps[0].Bus[0].Driver != 1 {
		t.Errorf("pattern 0 = %+v", ps[0])
	}
	// Bare "p" is a weight-1 pattern with no care bits.
	if ps[1].Weight != 1 || len(ps[1].Care) != 0 || ps[1].VictimPos != -1 {
		t.Errorf("pattern 1 = %+v", ps[1])
	}
}
