package dsync

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// TestStateCodecsRunOneMethod keeps mirrored SaveState/LoadState pairs
// from coming back. Outside internal/wire and benchmark/, every non-test
// SaveState and LoadState body is one call that hands its Enc's or Dec's
// wire.Coder to a method reached from the receiver, and a type's two
// bodies call the same method, so a field's save and its load are one
// line. An empty body (the experiment drivers that keep no state) is the
// one exception.
func TestStateCodecsRunOneMethod(t *testing.T) {
	fset := token.NewFileSet()
	callee := map[string]string{} // "file type" -> the method its codec bodies call
	found := 0
	walkGoFiles(t, fset, false, func(path string, f *ast.File) {
		if dir := filepath.ToSlash(filepath.Dir(path)); dir == "internal/wire" || strings.HasPrefix(dir, "benchmark") {
			return
		}
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
