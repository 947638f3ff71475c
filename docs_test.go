package qec_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strings"
	"testing"

	qec "repro"
)

// TestDocsMethodConsistency pins the docs to the method registry: every
// registered method name must appear (backticked, as in the matrices) in
// the README and in docs/EXPANDERS.md, and every alias in docs/EXPANDERS.md
// — so adding a backend without documenting it fails CI.
func TestDocsMethodConsistency(t *testing.T) {
	read := func(path string) string {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return string(b)
	}
	readme := read("README.md")
	expanders := read("docs/EXPANDERS.md")

	for _, mi := range qec.Methods() {
		token := fmt.Sprintf("`%s`", mi.Name)
		if !strings.Contains(readme, token) {
			t.Errorf("README.md is missing method %s", token)
		}
		if !strings.Contains(expanders, token) {
			t.Errorf("docs/EXPANDERS.md is missing method %s", token)
		}
		for _, alias := range mi.Aliases {
			if !strings.Contains(expanders, fmt.Sprintf("`%s`", alias)) {
				t.Errorf("docs/EXPANDERS.md is missing alias `%s` of %s", alias, token)
			}
		}
	}
}

// mdReference matches a Markdown file name in a comment: README.md,
// docs/EXPANDERS.md and the like.
var mdReference = regexp.MustCompile(`[A-Za-z0-9_./-]+\.md\b`)

// TestDocReferencesExist fails on a Go comment anywhere in this module that
// names a Markdown file which does not exist. Names resolve against the
// module root, the form every reference uses.
func TestDocReferencesExist(t *testing.T) {
	walkModule(t, parser.ParseComments, func(path string, fset *token.FileSet, f *ast.File) {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, name := range mdReference.FindAllString(c.Text, -1) {
					if _, err := os.Stat(name); err != nil {
						t.Errorf("%s: comment names %s, which does not exist", fset.Position(c.Slash), name)
					}
				}
			}
		}
	})
}
