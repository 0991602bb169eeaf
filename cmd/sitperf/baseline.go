package main

// Baseline files are the committed BENCH_*.json documents. They carry
// prose (findings, environment notes) alongside the numbers, so both
// loading and updating go through a schema-light map representation
// that touches only the compared fields and leaves the rest intact.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// loadBaseline extracts the comparable values of a baseline document:
// benchmarks[].ns_per_op keyed by benchmarks[].name, and the serve
// latency percentiles keyed latency/p50_ms etc. Entries without a
// comparable value (e.g. guard benches reporting custom fields) are
// skipped.
func loadBaseline(path string) (map[string]float64, error) {
	doc, err := readDoc(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	if benches, ok := doc["benchmarks"].([]any); ok {
		for _, item := range benches {
			m, ok := item.(map[string]any)
			if !ok {
				continue
			}
			name, _ := m["name"].(string)
			ns, ok := m["ns_per_op"].(float64)
			if name == "" || !ok {
				continue
			}
			out[name] = ns
		}
	}
	if lat, ok := doc["latency"].(map[string]any); ok {
		for _, k := range []string{"p50_ms", "p95_ms", "p99_ms"} {
			if v, ok := lat[k].(float64); ok {
				out["latency/"+k] = v
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no comparable entries (benchmarks[].ns_per_op or latency percentiles)", path)
	}
	return out, nil
}

// updateBaseline rewrites the compared values of a baseline document
// from this run's medians, preserving every other field. Bench entries
// get ns_per_op (rounded to integer nanoseconds); the serve document
// gets its latency percentiles. The environment block is stamped with
// the core count, GOMAXPROCS and Go version the numbers were taken
// with, so a baseline never outlives the host facts behind it.
func updateBaseline(path string, s suite, measured map[string][]float64) error {
	doc, err := readDoc(path)
	if err != nil {
		return err
	}
	env, _ := doc["environment"].(map[string]any)
	if env == nil {
		env = map[string]any{}
		doc["environment"] = env
	}
	env["nproc"] = runtime.NumCPU()
	env["gomaxprocs"] = runtime.GOMAXPROCS(0)
	env["go"] = runtime.Version()
	if benches, ok := doc["benchmarks"].([]any); ok {
		for _, item := range benches {
			m, ok := item.(map[string]any)
			if !ok {
				continue
			}
			name, _ := m["name"].(string)
			if _, had := m["ns_per_op"]; !had {
				continue
			}
			if samples, ok := measured[name]; ok {
				m["ns_per_op"] = int64(median(samples))
			}
		}
	}
	if lat, ok := doc["latency"].(map[string]any); ok {
		for _, k := range []string{"p50_ms", "p95_ms", "p99_ms"} {
			if samples, ok := measured["latency/"+k]; ok {
				lat[k] = median(samples)
			}
		}
	}
	// Prose such as "<= 1.5x" stays readable: no HTML escaping.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func readDoc(path string) (map[string]any, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return doc, nil
}
