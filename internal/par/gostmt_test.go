package par

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// allowedGo lists the go statements the library and commands may hold, as
// "file:enclosing function": the helpers this package starts, and
// SweepStream's driver, which runs the grid so the call can return at
// once.
var allowedGo = map[string]bool{
	"internal/par/par.go:start":     true,
	"systolic/sweep.go:SweepStream": true,
}

// concurrentByDesign lists the directories left out of the scan: the
// request-level flights and async jobs of systolic/serve, and gossipd's
// HTTP server and its load-test clients, are goroutines by design — they
// wait on connections, not on CPU work.
var concurrentByDesign = map[string]bool{
	"systolic/serve": true,
	"cmd/gossipd":    true,
}

// TestOnlyParStartsGoroutines pins the single worker runtime: every go
// statement in the non-test files under internal/, systolic/ and cmd/
// (outside concurrentByDesign and testdata) is one of allowedGo, so an
// ad-hoc pool cannot creep back in beside it.
func TestOnlyParStartsGoroutines(t *testing.T) {
	root := filepath.Join("..", "..")
	found := map[string]bool{}
	for _, dir := range []string{"internal", "systolic", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(root, path)
			rel = filepath.ToSlash(rel)
			if d.IsDir() {
				if d.Name() == "testdata" || concurrentByDesign[rel] {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				fn := "package-level declaration"
				if fd, ok := decl.(*ast.FuncDecl); ok {
					fn = fd.Name.Name
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if g, ok := n.(*ast.GoStmt); ok {
						site := rel + ":" + fn
						found[site] = true
						if !allowedGo[site] {
							t.Errorf("%s: go statement in %s; fan out through repro/internal/par instead",
								fset.Position(g.Pos()), fn)
						}
					}
					return true
				})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for site := range allowedGo {
		if !found[site] {
			t.Errorf("allowed go statement %s not found; update allowedGo", site)
		}
	}
}
