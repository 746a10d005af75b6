package checks

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/tools/dmlint/internal/analysis"
)

// CursorClose proves that every cursor a function acquires — a
// rowset.Cursor from (*Rowset).Cursor() or (*Table).Cursor(), or a
// rowset.BatchCursor from any SQL operator constructor: anything whose
// result implements either interface — reaches
// Close on every path out of the function, including error returns and
// early TOP/cancellation exits. Passing a cursor to another call,
// returning it, or storing it in a field/slice/map/closure transfers
// ownership (the PR5 Cursor contract: whoever holds the cursor closes
// it); `c, err := f()` acquisitions are exempt inside the `err != nil`
// branch, where the cursor is nil by convention. The check is scoped to
// repro/internal/ — the streaming executor's highest-risk leak class.
var CursorClose = &analysis.Analyzer{
	Name: "cursorclose",
	Doc:  "every acquired rowset.Cursor or rowset.BatchCursor must reach Close on all paths",
	Run:  runCursorClose,
}

// cursorSpec tracks values implementing any of ifaces: the row protocol at
// the edges, the batch protocol between the engine's operators.
type cursorSpec struct {
	ifaces []*types.Interface
}

func (cursorSpec) noun() string { return "cursor" }
func (cursorSpec) hint() string {
	return "defer Close, close it on this path, or hand it to an owner"
}

func (s cursorSpec) acquires(p *analysis.Pass, call *ast.CallExpr, i int) bool {
	t := resultType(p, call, i)
	if t == nil {
		return false
	}
	for _, iface := range s.ifaces {
		if types.Implements(t, iface) {
			return true
		}
	}
	return false
}

func (cursorSpec) releases(_ *analysis.Pass, call *ast.CallExpr) []*ast.Ident {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Close" {
		return nil
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	return []*ast.Ident{id}
}

func runCursorClose(p *analysis.Pass) error {
	if !strings.HasPrefix(p.Pkg.Path(), "repro/internal/") {
		return nil
	}
	var spec cursorSpec
	for _, name := range []string{"Cursor", "BatchCursor"} {
		if iface := lookupInterface(p, "repro/internal/rowset", name); iface != nil {
			spec.ifaces = append(spec.ifaces, iface)
		}
	}
	if spec.ifaces == nil {
		return nil // package does not touch cursors
	}
	checkResourceFlow(p, spec)
	return nil
}
