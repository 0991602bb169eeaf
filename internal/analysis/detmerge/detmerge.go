// Package detmerge guards the repeatability pillar on the parallel
// reduction paths (DESIGN §15): everything reachable from a merge root
// must combine results in deterministic index order, because two runs
// of the same optimization must produce byte-identical architectures.
//
// A merge root is a function whose doc comment carries a
// //sitlint:detmerge-root line — in this module the engine's candidate
// map, the ILS restart reduction and the grouping's bucket merge. The
// analyzer walks the in-package call graph from the roots and flags,
// inside every reachable function:
//
//   - ranging over a map, unless the function also sorts (a
//     collect-then-sort.Ints walk is the sanctioned idiom);
//
//   - a select with two or more receive cases — arrival-order
//     reduction;
//
//   - a call to an imported function carrying the MapOrder fact (its
//     body ranges over a map without sorting), which is how
//     nondeterminism hiding in a helper package reaches the merge
//     path.
//
// The MapOrder fact is exported for every function in every analyzed
// package, so the check crosses package boundaries without whole-
// program analysis. Per-site exemptions use //sitlint:allow detmerge.
package detmerge

import (
	"go/ast"
	"go/types"
	"strings"

	"sitam/internal/analysis"
)

// rootMarker declares a merge root in a function's doc comment.
const rootMarker = "//sitlint:detmerge-root"

// MapOrder is the object fact exported for functions whose body ranges
// over a map without sorting: callers on a deterministic merge path
// must not depend on their iteration order.
type MapOrder struct{}

func (*MapOrder) AFact() {}

var Analyzer = &analysis.Analyzer{
	Name:      "detmerge",
	Doc:       "parallel reduction paths must merge in deterministic index order",
	Run:       run,
	FactTypes: []analysis.Fact{(*MapOrder)(nil)},
}

type funcNode struct {
	decl *ast.FuncDecl
	key  string
}

func run(pass *analysis.Pass) error {
	// Collect functions, export MapOrder facts, find this package's
	// roots.
	var nodes []*funcNode
	byKey := map[string]*funcNode{}
	var roots []*funcNode
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			n := &funcNode{decl: fd, key: analysis.ObjectKey(obj)}
			nodes = append(nodes, n)
			byKey[n.key] = n
			if hasUnsortedMapRange(pass, fd.Body) {
				pass.ExportObjectFact(obj, &MapOrder{})
			}
			if isRoot(fd) {
				roots = append(roots, n)
			}
		}
	}
	if len(roots) == 0 {
		return nil
	}

	// BFS over the in-package call graph.
	reachable := map[string]bool{}
	queue := roots
	for _, r := range roots {
		reachable[r.key] = true
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		ast.Inspect(n.decl.Body, func(nd ast.Node) bool {
			call, ok := nd.(*ast.CallExpr)
			if !ok {
				return true
			}
			if pkgPath, key, _, ok := analysis.FuncKey(pass.TypesInfo, call); ok && pkgPath == pass.Pkg.Path() {
				if m := byKey[key]; m != nil && !reachable[key] {
					reachable[key] = true
					queue = append(queue, m)
				}
			}
			return true
		})
	}

	for _, n := range nodes {
		if reachable[n.key] {
			checkReachable(pass, n)
		}
	}
	return nil
}

// checkReachable flags the nondeterministic constructs inside one
// merge-path function.
func checkReachable(pass *analysis.Pass, n *funcNode) {
	sorted := containsSortCall(pass, n.decl.Body)
	ast.Inspect(n.decl.Body, func(nd ast.Node) bool {
		switch v := nd.(type) {
		case *ast.RangeStmt:
			if isMapType(pass.TypesInfo.TypeOf(v.X)) && !sorted {
				pass.Reportf(v.Pos(), "map iteration on the deterministic merge path: collect keys and sort, or index by position (reachable from a detmerge-root function)")
			}
		case *ast.SelectStmt:
			if receiveCases(v) >= 2 {
				pass.Reportf(v.Pos(), "select-based reduction merges in arrival order; receive from workers in index order instead")
			}
		case *ast.CallExpr:
			fn := analysis.CalleeFunc(pass.TypesInfo, v)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() == pass.Pkg.Path() {
				return true
			}
			var fact MapOrder
			if pass.ImportObjectFact(fn, &fact) {
				pass.Reportf(v.Pos(), "call to %s.%s on the deterministic merge path: its body ranges over a map in nondeterministic order", fn.Pkg().Path(), fn.Name())
			}
		}
		return true
	})
}

// hasUnsortedMapRange reports a map range in a body with no sort call
// — the exported MapOrder property.
func hasUnsortedMapRange(pass *analysis.Pass, body *ast.BlockStmt) bool {
	if containsSortCall(pass, body) {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if r, ok := n.(*ast.RangeStmt); ok && isMapType(pass.TypesInfo.TypeOf(r.X)) {
			found = true
		}
		return !found
	})
	return found
}

// containsSortCall reports any call into sort or slices.Sort* — the
// sanctioned collect-then-sort idiom.
func containsSortCall(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "sort":
			found = true
		case "slices":
			if strings.HasPrefix(fn.Name(), "Sort") {
				found = true
			}
		}
		return !found
	})
	return found
}

func receiveCases(s *ast.SelectStmt) int {
	n := 0
	for _, cc := range s.Body.List {
		cl, ok := cc.(*ast.CommClause)
		if !ok || cl.Comm == nil {
			continue // default case
		}
		switch c := cl.Comm.(type) {
		case *ast.ExprStmt, *ast.AssignStmt:
			_ = c
			n++
		}
	}
	return n
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isRoot reports whether fd's doc comment declares it a merge root.
func isRoot(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, rootMarker) {
			return true
		}
	}
	return false
}

// Roots returns the keys (Name, or Type.Name for methods) of pkg's
// merge roots outside test files, in declaration order.
func Roots(pkg *analysis.Package) []string {
	var out []string
	for _, f := range pkg.Files {
		if strings.HasSuffix(pkg.Fset.File(f.Pos()).Name(), "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil && isRoot(fd) {
				if obj, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func); obj != nil {
					out = append(out, analysis.ObjectKey(obj))
				}
			}
		}
	}
	return out
}
