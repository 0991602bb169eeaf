package main

// Robust statistics and the baseline comparison. Medians resist the
// long-tail outliers a shared VM injects (GC pause, noisy neighbor);
// the MAD gives a scale-free noise estimate reported alongside each
// verdict so a borderline ratio can be read in context.

import "sort"

// median returns the middle value (mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mad returns the median absolute deviation from the median.
func mad(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		d := x - m
		if d < 0 {
			d = -d
		}
		dev[i] = d
	}
	return median(dev)
}

// report is the machine-readable comparison document.
type report struct {
	Threshold   float64       `json:"threshold"`
	Iters       int           `json:"iters"`
	Regressions int           `json:"regressions"`
	Stale       int           `json:"stale"`
	Suites      []suiteReport `json:"suites"`
}

type suiteReport struct {
	Suite       string  `json:"suite"`
	Baseline    string  `json:"baseline"`
	Bar         float64 `json:"bar"` // threshold * suite scale
	Regressions int     `json:"regressions"`
	Stale       int     `json:"stale"`
	Entries     []entry `json:"entries"`
}

// entry compares one benchmark. Values are ns/op for bench suites and
// milliseconds for the serve latency percentiles — the ratio is what
// the verdict reads, so the unit only needs to match the baseline's.
type entry struct {
	Name     string    `json:"name"`
	Baseline float64   `json:"baseline,omitempty"`
	Measured float64   `json:"measured"` // median across repetitions
	Samples  []float64 `json:"samples,omitempty"`
	MAD      float64   `json:"mad"`
	// NoisePct is the MAD as a percentage of the median (scaled by
	// 1.4826, the consistency constant for a normal distribution).
	NoisePct float64 `json:"noise_pct"`
	Ratio    float64 `json:"ratio,omitempty"`
	// Status: ok | regression | stale (faster than the baseline by
	// more than the bar: the baseline no longer describes the code and
	// must be re-recorded) | new (no baseline entry).
	Status string `json:"status"`
}

// compareSuite folds measured samples against the baseline map
// (name -> baseline ns). Entries are emitted in sorted-name order so
// the report is deterministic.
func compareSuite(s suite, base map[string]float64, measured map[string][]float64, threshold float64) suiteReport {
	bar := threshold * s.thresholdScale
	sr := suiteReport{Suite: s.name, Baseline: s.baseline, Bar: bar}
	names := make([]string, 0, len(measured))
	for name := range measured {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		samples := measured[name]
		m := median(samples)
		d := mad(samples)
		e := entry{Name: name, Measured: m, Samples: samples, MAD: d}
		if m > 0 {
			e.NoisePct = 100 * 1.4826 * d / m
		}
		baseVal, ok := base[name]
		if !ok || baseVal <= 0 {
			e.Status = "new"
			sr.Entries = append(sr.Entries, e)
			continue
		}
		e.Baseline = baseVal
		e.Ratio = m / baseVal
		switch {
		case e.Ratio > bar:
			e.Status = "regression"
			sr.Regressions++
		case e.Ratio < 1/bar:
			e.Status = "stale"
			sr.Stale++
		default:
			e.Status = "ok"
		}
		sr.Entries = append(sr.Entries, e)
	}
	return sr
}
