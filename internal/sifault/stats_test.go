package sifault

import (
	"context"
	"strings"
	"testing"

	"sitam/internal/soc"
)

func TestDistribution(t *testing.T) {
	var d Distribution
	if d.Mean() != 0 {
		t.Errorf("empty mean = %v", d.Mean())
	}
	for _, v := range []int{5, 1, 3} {
		d.Add(v)
	}
	if d.Min != 1 || d.Max != 5 || d.N != 3 || d.Mean() != 3 {
		t.Errorf("distribution = %+v", d)
	}
	if !strings.Contains(d.String(), "mean=3.0") {
		t.Errorf("String = %q", d.String())
	}
}

func TestAnalyzeGeneratedSet(t *testing.T) {
	s := soc.MustLoadBenchmark("p34392")
	patterns, _, err := GenerateCtx(context.Background(), s, GenConfig{N: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	st := Analyze(patterns)
	if st.Patterns != 2000 || st.TotalWeight != 2000 {
		t.Fatalf("stats = %+v", st)
	}
	// With quiescing on, care bits per pattern are at least the
	// smallest core's WOC count.
	if st.CareBits.Min < 16 {
		t.Errorf("min care bits %d suspiciously low for quiesced patterns", st.CareBits.Min)
	}
	// Transitions = victim (if transitioning) + 2..6 aggressors.
	if st.Transitions.Min < 2 || st.Transitions.Max > 7 {
		t.Errorf("transitions %s out of [2,7]", st.Transitions)
	}
	if frac := float64(st.BusUsing) / 2000; frac < 0.45 || frac > 0.55 {
		t.Errorf("bus usage fraction %.2f", frac)
	}
	// All 19 cores should attract victims.
	if len(st.VictimsPerCore) != s.NumCores() {
		t.Errorf("victims spread over %d cores, want %d", len(st.VictimsPerCore), s.NumCores())
	}
	out := st.Format()
	for _, want := range []string{"2000 patterns", "care bits", "bus usage", "victims per core"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	st := Analyze(nil)
	if st.Patterns != 0 || st.TotalWeight != 0 {
		t.Errorf("stats = %+v", st)
	}
	if !strings.Contains(st.Format(), "0 patterns") {
		t.Errorf("Format = %q", st.Format())
	}
}
