package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// cpuModel returns the first "model name" of /proc/cpuinfo, or
// "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from the .git directory without running git;
// a checkout exported without .git reports "none" (the source digest
// still identifies the code).
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources, module files and SOC fixtures
// under root, skipping hidden directories (build output, VCS data).
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries do not change what was built
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".mod", ".soc":
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(filepath.ToSlash(p)))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkLedger compares the run's exact metrics with those recorded by
// earlier runs of the same code, workload, seed and size, and records
// new ones. A count marked exact that differs between two such runs
// fails the run. The ledger lives in root/.bench_build, so it never
// outlives the checkout it describes.
func (r *report) checkLedger(root, key string) {
	dir := filepath.Join(root, ".bench_build")
	path := filepath.Join(dir, "sitbench-exact.json")
	ledger := map[string]map[string]float64{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &ledger); err != nil {
			ledger = map[string]map[string]float64{} // a damaged ledger starts over
		}
	}
	key = r.env.Source + "/" + key
	seen := ledger[key]
	if seen == nil {
		seen = map[string]float64{}
		ledger[key] = seen
	}
	changed := false
	for _, m := range r.metrics {
		if !m.exact {
			continue
		}
		if old, ok := seen[m.name]; ok {
			if old != m.value {
				r.fail("exact metric %s = %v, an earlier run of the same code and seed gave %v", m.name, m.value, old)
			}
			continue
		}
		seen[m.name] = m.value
		changed = true
	}
	if !changed {
		return
	}
	b, err := json.Marshal(ledger)
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err == nil {
		tmp := path + ".tmp"
		if err = os.WriteFile(tmp, b, 0o644); err == nil {
			err = os.Rename(tmp, path)
		}
	}
	if err != nil {
		r.fail("exact-count ledger: %v", err)
	}
}
