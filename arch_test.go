package qec_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goStatementHomes are the only places in the module that may start a
// goroutine: internal/par fans work out under the process-wide worker
// budget, internal/server runs the listener and its shutdown, and cmd/
// holds the binaries' signal and pprof handling. Anything else that wants
// concurrency goes through par.For or par.Chunks.
var goStatementHomes = []string{"internal/par/", "internal/server/", "cmd/"}

// TestNoGoStatementOutsidePar is an architecture ratchet: it parses every
// non-test Go file of this module (nested modules such as perfbench/ are
// their own) and fails on any go statement outside goStatementHomes.
func TestNoGoStatementOutsidePar(t *testing.T) {
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		slash := filepath.ToSlash(path)
		for _, home := range goStatementHomes {
			if strings.HasPrefix(slash, home) {
				return nil
			}
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				t.Errorf("%s: go statement outside internal/par; fan out with par.For or par.Chunks", fset.Position(g.Go))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
