package dsync

import (
	"go/ast"
	"go/token"
	"os"
	"regexp"
	"testing"
)

// citedTest matches a test, fuzz target or benchmark named in prose.
var citedTest = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z]\w*`)

// TestDocsCiteDeclaredTests holds DESIGN.md and README.md to the tests they
// cite: every Test*, Fuzz* and Benchmark* name in them must be declared as
// a top-level function in some _test.go file of the repository, so a pin
// the docs lean on cannot be renamed or deleted while they still cite it.
func TestDocsCiteDeclaredTests(t *testing.T) {
	declared := map[string]bool{}
	walkGoFiles(t, token.NewFileSet(), true, func(_ string, f *ast.File) {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				declared[fn.Name.Name] = true
			}
		}
	})
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range citedTest.FindAllString(string(text), -1) {
			if !declared[name] {
				t.Errorf("%s cites %s, which no _test.go declares", doc, name)
			}
		}
	}
}
