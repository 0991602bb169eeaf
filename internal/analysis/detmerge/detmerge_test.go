package detmerge_test

import (
	"path/filepath"
	"slices"
	"testing"

	"sitam/internal/analysis"
	"sitam/internal/analysis/analysistest"
	"sitam/internal/analysis/detmerge"
	"sitam/internal/analysis/load"
)

func TestFixtures(t *testing.T) {
	analysistest.Run(t, detmerge.Analyzer, "detmerge_a", "detmerge_b")
}

// TestCoreDeclaresRoots guards against the analyzer silently checking
// nothing in the optimizer: the merge paths of sitam/internal/core
// carry the root marker, and the package is clean under it.
func TestCoreDeclaresRoots(t *testing.T) {
	pkgs, err := load.Load(filepath.Join("..", "..", ".."), "sitam/internal/core")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	roots := detmerge.Roots(pkgs[0])
	for _, want := range []string{"Engine.mapCandidates", "Engine.OptimizeILSRestartsCtx", "BuildGroupsCtx"} {
		if !slices.Contains(roots, want) {
			t.Errorf("core roots %v lack %s", roots, want)
		}
	}
	diags, err := analysis.Run(detmerge.Analyzer, pkgs[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s", pkgs[0].Fset.Position(d.Pos), d.Message)
	}
}
