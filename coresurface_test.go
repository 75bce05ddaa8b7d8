package ifls

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// coreEntryPoints are the only exported internal/core functions and methods
// allowed to take a *vip.Tree or answer a query. Everything else reaches
// the engine through them.
var coreEntryPoints = map[string]bool{
	"Exec":         true,
	"NewSession":   true,
	"Session.Exec": true,
}

// coreAnswerTypes are the payloads only a query entry point returns.
var coreAnswerTypes = map[string]bool{
	"Result":            true,
	"ExtResult":         true,
	"ExecResult":        true,
	"MultiResult":       true,
	"[]RankedCandidate": true,
}

// TestCoreQuerySurface pins internal/core's exported query surface to
// coreEntryPoints plus the brute-force oracle on *d2d.Graph, so per-objective
// wrappers cannot grow back one at a time. A declaration is a query entry
// point when it is named Solve*, takes a *vip.Tree or *Query parameter, or
// returns one of coreAnswerTypes.
func TestCoreQuerySurface(t *testing.T) {
	fset := token.NewFileSet()
	files, err := filepath.Glob(filepath.Join("internal", "core", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				recv := strings.TrimPrefix(exprString(fn.Recv.List[0].Type), "*")
				if !ast.IsExported(recv) {
					continue
				}
				name = recv + "." + name
			}
			params := fieldTypes(fn.Type.Params)
			if coreEntryPoints[name] || params["*d2d.Graph"] {
				continue
			}
			answers := strings.HasPrefix(fn.Name.Name, "Solve") || params["*vip.Tree"] || params["*Query"]
			for typ := range fieldTypes(fn.Type.Results) {
				answers = answers || coreAnswerTypes[typ]
			}
			if answers {
				t.Errorf("%s: internal/core exports query entry point %s; route it through Exec or Session.Exec",
					fset.Position(fn.Pos()), name)
			}
		}
	}
}

// fieldTypes returns the set of type expressions in a parameter or result
// list.
func fieldTypes(fl *ast.FieldList) map[string]bool {
	types := map[string]bool{}
	if fl == nil {
		return types
	}
	for _, field := range fl.List {
		types[exprString(field.Type)] = true
	}
	return types
}

// exprString renders the type expressions that appear in core signatures.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.ArrayType:
		return "[]" + exprString(e.Elt)
	}
	return ""
}
