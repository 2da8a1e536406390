package dsync

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// TestStateCodecsRunOneMethod keeps mirrored save/load pairs from coming
// back. Outside internal/wire and benchmark/, every non-test SaveState and
// LoadState body is one call that hands its Enc's or Dec's wire.Coder to a
// method reached from the receiver, and a type's two bodies call the same
// method, so a field's save and its load are one line. An empty body (the
// experiment drivers that keep no state) is the one exception. Nor does
// any non-test code there call a wire.Dec read primitive itself: engine
// frames and protocol messages are read through the Coder their writer
// runs too (decodeReads), so no record has a separate decoder.
func TestStateCodecsRunOneMethod(t *testing.T) {
	fset := token.NewFileSet()
	callee := map[string]string{} // "file type" -> the method its codec bodies call
	found := 0
	pkgs := map[string][]*ast.File{}
	walkGoFiles(t, fset, false, func(path string, f *ast.File) {
		if dir := filepath.ToSlash(filepath.Dir(path)); dir == "internal/wire" || strings.HasPrefix(dir, "benchmark") {
			return
		}
		pkgs[filepath.Dir(path)] = append(pkgs[filepath.Dir(path)], f)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || (fd.Name.Name != "SaveState" && fd.Name.Name != "LoadState") || len(fd.Body.List) == 0 {
				continue
			}
			found++
			typ := recvName(fd.Recv.List[0].Type)
			fn, ok := coderCall(fd)
			if !ok {
				t.Errorf("%s: %s.%s must be one call handing its Coder() to the type's state method",
					fset.Position(fd.Pos()), typ, fd.Name.Name)
				continue
			}
			key := path + " " + typ
			if prev, seen := callee[key]; seen && prev != fn {
				t.Errorf("%s: %s's SaveState and LoadState call %s and %s, not one method", fset.Position(fd.Pos()), typ, prev, fn)
			}
			callee[key] = fn
		}
	})
	if found == 0 {
		t.Fatal("found no state codec")
	}
	for _, files := range pkgs {
		for _, call := range decodeReads(files) {
			t.Errorf("%s: %s reads a wire.Dec directly; code the record through the Coder its writer runs",
				fset.Position(call.Pos()), types.ExprString(call.Fun))
		}
	}
}

// decReads are the wire.Dec methods that read a value. Its Skip* methods,
// which step over a record another engine owns, and its bookkeeping (Err,
// Failed, Fail, Remaining, Reset, Coder) are not among them.
var decReads = map[string]bool{
	"U8": true, "Bool": true, "U32": true, "I32": true, "U64": true, "I64": true, "Int": true, "F64": true,
	"Str": true, "Raw": true, "Body": true, "RawBody": true, "BeginBlob": true, "EndBlob": true, "Nested": true,
}

// decodeReads returns the calls in one package's files of a decReads
// method on a wire.Dec: on wire.NewDec(...) itself, or on a name the
// package declares of type wire.Dec or *wire.Dec — a variable, parameter
// or field, or one assigned wire.NewDec(...) or the address of such a name.
func decodeReads(files []*ast.File) []*ast.CallExpr {
	isDec := func(e ast.Expr) bool {
		if star, ok := e.(*ast.StarExpr); ok {
			e = star.X
		}
		sel, ok := e.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "Dec" && isIdent(sel.X, "wire")
	}
	isNewDec := func(e ast.Expr) bool {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "NewDec" && isIdent(sel.X, "wire")
	}
	names := map[string]bool{}
	name := func(e ast.Expr) string {
		if u, ok := e.(*ast.UnaryExpr); ok {
			e = u.X
		}
		switch x := e.(type) {
		case *ast.Ident:
			return x.Name
		case *ast.SelectorExpr:
			return x.Sel.Name
		}
		return ""
	}
	for grew := true; grew; {
		grew = false
		add := func(id *ast.Ident) {
			if id.Name != "_" && !names[id.Name] {
				names[id.Name], grew = true, true
			}
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.Field:
					if isDec(x.Type) {
						for _, id := range x.Names {
							add(id)
						}
					}
				case *ast.ValueSpec:
					for i, id := range x.Names {
						if isDec(x.Type) || (i < len(x.Values) && (isNewDec(x.Values[i]) || names[name(x.Values[i])])) {
							add(id)
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range x.Lhs {
						if id, ok := lhs.(*ast.Ident); ok && len(x.Rhs) == len(x.Lhs) && (isNewDec(x.Rhs[i]) || names[name(x.Rhs[i])]) {
							add(id)
						}
					}
				}
				return true
			})
		}
	}
	var calls []*ast.CallExpr
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && decReads[sel.Sel.Name] && (isNewDec(sel.X) || names[name(sel.X)]) {
				calls = append(calls, call)
			}
			return true
		})
	}
	return calls
}

// coderCall returns the callee of fd's body when the body is the one
// statement recv.…(param.Coder()), with the callee reached from fd's
// receiver.
func coderCall(fd *ast.FuncDecl) (string, bool) {
	recv, params := fd.Recv.List[0].Names, fd.Type.Params.List
	if len(fd.Body.List) != 1 || len(recv) != 1 || len(params) != 1 || len(params[0].Names) != 1 {
		return "", false
	}
	stmt, ok := fd.Body.List[0].(*ast.ExprStmt)
	if !ok {
		return "", false
	}
	call, ok := stmt.X.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return "", false
	}
	arg, ok := call.Args[0].(*ast.CallExpr)
	if !ok || len(arg.Args) != 0 {
		return "", false
	}
	if sel, ok := arg.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Coder" || !isIdent(sel.X, params[0].Names[0].Name) {
		return "", false
	}
	root := call.Fun
	for {
		sel, ok := root.(*ast.SelectorExpr)
		if !ok {
			break
		}
		root = sel.X
	}
	if root == call.Fun || !isIdent(root, recv[0].Name) {
		return "", false
	}
	return types.ExprString(call.Fun), true
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}
