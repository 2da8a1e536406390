package dsync

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported internal identifiers that no
// non-test code outside their package uses but that stay exported anyway,
// each with the reason. An entry that stops being declared, or gains an
// outside use, fails TestInternalSurface, so the list cannot go stale.
var surfaceAllowlist = map[string]string{
	"abfs.IterationStacks": "one doubling iteration's stacks, which Full runs internally; the stack byte budget and the live-restore matrix build engines from them",
	"apps.CheckBFSOutputs": "the BFS output oracle the apps and abfs tests share; a _test.go helper cannot cross packages",
	"apps.TBFSSourceDone":  "what every AsyncBFS source outputs; callers meet it inside Outputs' any, tests match it by type",
	"graph.Dumbbell":       "bottleneck topology the cover, decomp and apps tests share; no CLI run needs a spec form for it",
	"graph.Lollipop":       "clique-plus-tail topology the apps mode matrix runs; no CLI run needs a spec form for it",
	"wire.ErrSnapVersion":  "sentinel callers match with errors.Is; the async, shard and bench tests pin that resume errors wrap it",
}

// maxSurfaceAllowlist caps the allowlist: an exception that needs more
// room than this is a design problem, not an exception.
const maxSurfaceAllowlist = 20

// TestInternalSurface enforces the surface rule: every exported top-level
// func, type, const and var declared in a non-test file of internal/<pkg>
// is used from non-test code outside that package, as a <pkg>.Name
// selector or as a type reachable from the declaration of a used name (a
// used function's signature, the exported methods and fields of a used
// type, a used var's or const's type). Methods and struct fields are not
// checked by name.
func TestInternalSurface(t *testing.T) {
	if len(surfaceAllowlist) > maxSurfaceAllowlist {
		t.Fatalf("surface allowlist has %d entries, the cap is %d", len(surfaceAllowlist), maxSurfaceAllowlist)
	}
	fset := token.NewFileSet()
	pkgs := map[string]*surfacePkg{} // internal package name -> its exports
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			continue
		}
		p := &surfacePkg{decls: map[string]ast.Node{}, methods: map[string][]*ast.FuncDecl{}}
		for _, f := range parseDir(t, fset, dir) {
			p.collect(f)
		}
		pkgs[filepath.Base(dir)] = p
	}

	used := map[string]bool{} // "pkg.Name"
	walkGoFiles(t, fset, false, func(path string, f *ast.File) {
		own := ""
		if rel, ok := strings.CutPrefix(filepath.ToSlash(filepath.Dir(path)), "internal/"); ok {
			own = rel
		}
		local := map[string]string{} // import name in this file -> internal package
		for _, imp := range f.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			pkg, ok := strings.CutPrefix(ipath, "repro/internal/")
			if !ok || pkg == own {
				continue
			}
			name := pkg
			if imp.Name != nil {
				name = imp.Name.Name
			}
			local[name] = pkg
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && local[x.Name] != "" {
					used[local[x.Name]+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
	})

	// Close the used set over declarations: a type a caller receives from a
	// used name is reachable even when the caller never spells it.
	work := make([]string, 0, len(used))
	for k := range used {
		work = append(work, k)
	}
	for len(work) > 0 {
		key := work[len(work)-1]
		work = work[:len(work)-1]
		pkg, name, _ := strings.Cut(key, ".")
		p := pkgs[pkg]
		if p == nil {
			continue
		}
		for _, ref := range p.reachable(name) {
			if k := pkg + "." + ref; !used[k] {
				used[k] = true
				work = append(work, k)
			}
		}
	}

	var flagged []string
	for pkg, p := range pkgs {
		for name := range p.decls {
			key := pkg + "." + name
			_, allowed := surfaceAllowlist[key]
			if !used[key] && !allowed {
				flagged = append(flagged, key)
			}
		}
	}
	sort.Strings(flagged)
	for _, key := range flagged {
		t.Errorf("%s is exported but nothing outside internal/%s uses it: delete it, unexport it, or allowlist it with a reason", key, strings.SplitN(key, ".", 2)[0])
	}
	for key := range surfaceAllowlist {
		pkg, name, _ := strings.Cut(key, ".")
		switch p := pkgs[pkg]; {
		case p == nil || p.decls[name] == nil:
			t.Errorf("surface allowlist entry %s is no longer declared: remove it", key)
		case used[key]:
			t.Errorf("surface allowlist entry %s is now used outside internal/%s: remove it", key, pkg)
		}
	}
}

// walkGoFiles parses every .go file of the repository outside hidden and
// testdata directories, test files when tests is set and the others when it
// is not, and hands each to fn.
func walkGoFiles(t *testing.T, fset *token.FileSet, tests bool, fn func(path string, f *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") != tests {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		fn(path, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// surfacePkg is the exported top-level surface of one internal package.
type surfacePkg struct {
	decls   map[string]ast.Node        // exported name -> its spec or func decl
	methods map[string][]*ast.FuncDecl // receiver type name -> exported methods
}

func (p *surfacePkg) collect(f *ast.File) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				p.decls[d.Name.Name] = d
				continue
			}
			if recv := recvName(d.Recv.List[0].Type); recv != "" {
				p.methods[recv] = append(p.methods[recv], d)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						p.decls[s.Name.Name] = s
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							p.decls[n.Name] = s
						}
					}
				}
			}
		}
	}
}

// reachable lists the package's own exported names that the declaration
// of name hands to a caller.
func (p *surfacePkg) reachable(name string) []string {
	var refs []string
	var visit func(n ast.Node)
	visit = func(n ast.Node) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				return false // another package's name
			case *ast.StructType:
				// Unexported struct fields are not part of the surface.
				for _, f := range n.Fields.List {
					if len(f.Names) == 0 || f.Names[0].IsExported() {
						visit(f.Type)
					}
				}
				return false
			case *ast.Ident:
				if p.decls[n.Name] != nil {
					refs = append(refs, n.Name)
				}
			}
			return true
		})
	}
	switch d := p.decls[name].(type) {
	case *ast.FuncDecl:
		visit(d.Type)
	case *ast.TypeSpec:
		if d.TypeParams != nil {
			visit(d.TypeParams)
		}
		visit(d.Type)
		for _, m := range p.methods[name] {
			visit(m.Type)
		}
	case *ast.ValueSpec:
		visit(d.Type)
	}
	return refs
}

func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

func parseDir(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}
