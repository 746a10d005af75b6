package sqlengine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"slices"
	"sort"
	"strings"
	"testing"
)

// parseNonTest parses the non-test Go files of dir.
func parseNonTest(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			files = append(files, f)
		}
	}
	return files
}

// TestOneExpressionCompiler guards the one-evaluator rule. Expressions run
// through Compile's closures and nothing else: one function switches over the
// value-producing node types (the tree rewriters — parameter binding, subquery
// resolution, aggregate collection — only ever switch on interior nodes, never
// on the *Literal and *ColumnRef leaves), the retired evaluators' names are
// gone, the frame carries no per-statement state, and Eval — compile, run
// once, discard — is called only where an expression really is evaluated once.
func TestOneExpressionCompiler(t *testing.T) {
	fset := token.NewFileSet()
	retired := map[string]bool{
		"compile3": true, "compilePred": true, "pred3": true, "compileValuer": true,
		"valuer": true, "substituteAggs": true, "evalBinary": true, "evalLogical": true,
	}
	var evaluators, evalCallers []string
	for _, file := range parseNonTest(t, fset, ".") {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Ident:
				if retired[x.Name] {
					t.Errorf("%s: %s is back; expressions compile through Compile only", fset.Position(x.Pos()), x.Name)
				}
			case *ast.TypeSpec:
				st, ok := x.Type.(*ast.StructType)
				if x.Name.Name != "Env" || !ok {
					break
				}
				for _, f := range st.Fields.List {
					for _, name := range f.Names {
						switch name.Name {
						case "Schema", "External", "Funcs":
							t.Errorf("%s: Env.%s: the frame carries per-row state only; schemas and hooks are Compile arguments",
								fset.Position(name.Pos()), name.Name)
						}
					}
				}
			}
			return true
		})
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			switchesOnLeaves, callsEval := false, false
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.TypeSwitchStmt:
					for _, stmt := range x.Body.List {
						for _, typ := range stmt.(*ast.CaseClause).List {
							star, ok := typ.(*ast.StarExpr)
							if !ok {
								continue
							}
							if id, ok := star.X.(*ast.Ident); ok && (id.Name == "Literal" || id.Name == "ColumnRef") {
								switchesOnLeaves = true
							}
						}
					}
				case *ast.CallExpr:
					if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "Eval" {
						callsEval = true
					}
				}
				return true
			})
			if switchesOnLeaves {
				evaluators = append(evaluators, fn.Name.Name)
			}
			if callsEval {
				evalCallers = append(evalCallers, fn.Name.Name)
			}
		}
	}
	if len(evaluators) != 1 || evaluators[0] != "compile" {
		t.Errorf("functions type-switching over value-producing Expr nodes: %v, want [compile]", evaluators)
	}
	if len(evalCallers) != 1 || evalCallers[0] != "execInsert" {
		t.Errorf("callers of the one-shot Eval: %v, want [execInsert] (INSERT ... VALUES)", evalCallers)
	}
	for _, file := range parseNonTest(t, fset, "../provider") {
		ast.Inspect(file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Eval" {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == "sqlengine" {
					t.Errorf("%s: the provider compiles once per statement (sqlengine.Compile), never Eval per row", fset.Position(sel.Pos()))
				}
			}
			return true
		})
	}
}

// TestOneTreeWalker guards the one-walker rule: the expression tree's shape is
// known in two places only — compile, the evaluator, and mapChildren, the child
// step the walker (Inspect) and the rewriter (rewrite) share — so every other
// traversal is a caller of those two. Any hand-written traversal has to
// type-switch over *Between to reach its operands; a type switch inside a
// function literal handed to the walker or the rewriter dispatches on the node
// being visited and is exempt.
func TestOneTreeWalker(t *testing.T) {
	walkers := map[string]bool{"Inspect": true, "inspectStatement": true, "rewrite": true, "rewriteStatement": true}
	fset := token.NewFileSet()
	var got []string
	for _, file := range parseNonTest(t, fset, ".") {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CallExpr:
					if id, ok := x.Fun.(*ast.Ident); ok && walkers[id.Name] {
						return false
					}
				case *ast.TypeSwitchStmt:
					for _, stmt := range x.Body.List {
						for _, typ := range stmt.(*ast.CaseClause).List {
							if star, ok := typ.(*ast.StarExpr); ok {
								if id, ok := star.X.(*ast.Ident); ok && id.Name == "Between" {
									got = append(got, fn.Name.Name)
								}
							}
						}
					}
				}
				return true
			})
		}
	}
	sort.Strings(got)
	if want := []string{"compile", "mapChildren"}; !slices.Equal(got, want) {
		t.Errorf("functions type-switching over *Between: %v, want %v; walk the tree with Inspect or rewrite", got, want)
	}
}

// TestOperatorsSpeakBatchesOnly guards the one-protocol rule: no non-test type
// in this package has a row-at-a-time `Next() (rowset.Row, error)` method.
// Operators pull and yield rowset.BatchCursor batches; a second protocol would
// bring back the adapters and the second body per operator.
func TestOperatorsSpeakBatchesOnly(t *testing.T) {
	fset := token.NewFileSet()
	for _, file := range parseNonTest(t, fset, ".") {
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
