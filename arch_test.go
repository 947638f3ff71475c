package qec_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// goStatementHomes are the only places in the module that may start a
// goroutine: internal/par fans work out under the process-wide worker
// budget, internal/server runs the listener and its shutdown, and cmd/
// holds the binaries' signal and pprof handling. Anything else that wants
// concurrency goes through par.For or par.Chunks.
var goStatementHomes = []string{"internal/par/", "internal/server/", "cmd/"}

// walkModule parses every Go file of this module — nested modules such as
// perfbench/ are their own, and testdata/ and dot- or underscore-prefixed
// directories are skipped — and hands each to visit with its slash path.
func walkModule(t *testing.T, mode parser.Mode, visit func(path string, fset *token.FileSet, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, mode|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		visit(filepath.ToSlash(path), fset, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNoGoStatementOutsidePar is an architecture ratchet: it fails on any go
// statement in a non-test file of this module outside goStatementHomes.
func TestNoGoStatementOutsidePar(t *testing.T) {
	walkModule(t, 0, func(path string, fset *token.FileSet, f *ast.File) {
		if strings.HasSuffix(path, "_test.go") {
			return
		}
		for _, home := range goStatementHomes {
			if strings.HasPrefix(path, home) {
				return
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				t.Errorf("%s: go statement outside internal/par; fan out with par.For or par.Chunks", fset.Position(g.Go))
			}
			return true
		})
	})
}

// TestNoDocIDMapInCore is an architecture ratchet for the one document-set
// representation: the expansion pipeline in internal/core carries sets as
// bitsets over a universe's dense IDs, so no non-test file there may spell
// a map type keyed by document.DocID. Named map types declared elsewhere,
// such as eval.Weights, are not map type expressions and do not count.
func TestNoDocIDMapInCore(t *testing.T) {
	walkModule(t, 0, func(path string, fset *token.FileSet, f *ast.File) {
		if !strings.HasPrefix(path, "internal/core/") || strings.HasSuffix(path, "_test.go") {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			m, ok := n.(*ast.MapType)
			if !ok {
				return true
			}
			if sel, ok := m.Key.(*ast.SelectorExpr); ok && sel.Sel.Name == "DocID" {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "document" {
					t.Errorf("%s: map keyed by document.DocID in internal/core; use a document.BitSet over the universe's dense IDs",
						fset.Position(m.Map))
				}
			}
			return true
		})
	})
}

// clockFreePackages never read the wall clock: their output is a pure
// function of their inputs, which keeps the degradation ladder replayable
// and the pipeline's determinism goldens meaningful. Timing belongs to the
// obs spans and the serving layer around them.
var clockFreePackages = []string{
	"internal/degrade/", "internal/core/", "internal/cluster/", "internal/search/", "internal/index/",
}

// TestNoWallClockInPurePackages is an architecture ratchet: no non-test file
// of clockFreePackages may call time.Now, time.Since or time.Until.
func TestNoWallClockInPurePackages(t *testing.T) {
	walkModule(t, 0, func(path string, fset *token.FileSet, f *ast.File) {
		if strings.HasSuffix(path, "_test.go") || !slices.ContainsFunc(clockFreePackages, func(p string) bool {
			return strings.HasPrefix(path, p)
		}) {
			return
		}
		timeName := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"time"` {
				timeName = "time"
				if imp.Name != nil {
					timeName = imp.Name.Name
				}
			}
		}
		if timeName == "" {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == timeName {
				switch sel.Sel.Name {
				case "Now", "Since", "Until":
					t.Errorf("%s: %s.%s in a package that must not read the wall clock", fset.Position(sel.Pos()), x.Name, sel.Sel.Name)
				}
			}
			return true
		})
	})
}
