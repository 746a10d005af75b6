package sqlengine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// TestOperatorsSpeakBatchesOnly guards the one-protocol rule: no non-test type
// in this package has a row-at-a-time `Next() (rowset.Row, error)` method.
// Operators pull and yield rowset.BatchCursor batches; a second protocol would
// bring back the adapters and the second body per operator.
func TestOperatorsSpeakBatchesOnly(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv == nil || fn.Name.Name != "Next" {
					continue
				}
				res := fn.Type.Results
				if fn.Type.Params.NumFields() != 0 || res == nil || len(res.List) != 2 {
					continue
				}
				if sel, ok := res.List[0].Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "Row" {
					t.Errorf("%s: row-at-a-time Next method; operators implement NextBatch only", fset.Position(fn.Pos()))
				}
			}
		}
	}
}
