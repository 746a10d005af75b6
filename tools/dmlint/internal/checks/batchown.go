package checks

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/tools/dmlint/internal/analysis"
)

// BatchOwn enforces the Batch ownership rule of the vectorized cursor
// contract (rowset.BatchCursor): the Batch returned by NextBatch — and its
// Rows/Sel slices — is producer-owned scratch, valid only until the next
// NextBatch or Close. A consumer that stores the batch (or either slice)
// into a field, slice element, map, package variable, channel, or composite
// literal aliases a buffer the producer will overwrite, which corrupts data
// at a distance with no race for the detector to see. Individual Row values
// ARE retainable (engine rows are immutable), so element-copying appends
// (`append(dst, b.Rows...)`) and `b.Row(i)` escapes are fine; it is the
// slice identity that must not outlive the pull.
//
// Methods named NextBatch are exempt: producers legitimately keep their
// reused buffers in fields and return them.
var BatchOwn = &analysis.Analyzer{
	Name: "batchown",
	Doc:  "a Batch from NextBatch must not be retained past the next NextBatch/Close",
	Run:  runBatchOwn,
}

func runBatchOwn(p *analysis.Pass) error {
	if !strings.HasPrefix(p.Pkg.Path(), "repro/internal/") {
		return nil
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Name.Name == "NextBatch" {
				continue
			}
			checkBatchOwn(p, fd)
		}
	}
	return nil
}

func checkBatchOwn(p *analysis.Pass, fd *ast.FuncDecl) {
	tainted := collectBatchVars(p, fd)
	if len(tainted) == 0 {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				rhs := pairedRhs(x, i)
				if rhs == nil || !batchRef(p, tainted, rhs) {
					continue
				}
				if isLocalIdent(p, lhs) {
					continue // local alias: taint propagation covers it
				}
				p.Reportf(rhs.Pos(), "batch slice from NextBatch stored outside the pull loop: the producer overwrites it on the next NextBatch; copy the rows out (append(dst, b.Rows...) or b.Row(i))")
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "append" {
				for i, arg := range x.Args[1:] {
					if !batchRef(p, tainted, arg) {
						continue
					}
					// append(dst, b.Rows...) copies the Row headers out of the
					// producer's buffer — that is the sanctioned idiom.
					if x.Ellipsis != token.NoPos && i+1 == len(x.Args)-1 && isBatchSliceSel(arg) {
						continue
					}
					p.Reportf(arg.Pos(), "batch slice from NextBatch appended by reference: the producer overwrites it on the next NextBatch; append its elements (b.Rows...) instead")
				}
			}
		case *ast.SendStmt:
			if batchRef(p, tainted, x.Value) {
				p.Reportf(x.Value.Pos(), "batch from NextBatch sent on a channel: the receiver sees a buffer the producer overwrites on the next NextBatch; copy the rows out first")
			}
		case *ast.CompositeLit:
			for _, elt := range x.Elts {
				v := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if batchRef(p, tainted, v) {
					p.Reportf(v.Pos(), "batch from NextBatch captured in a composite literal: the value aliases a buffer the producer overwrites on the next NextBatch; copy the rows out first")
				}
			}
		}
		return true
	})
}

// collectBatchVars seeds the tainted set with variables assigned from a
// NextBatch call, then propagates through plain local aliasing assignments
// (`rows := b.Rows`) to a fixpoint.
func collectBatchVars(p *analysis.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	tainted := make(map[types.Object]bool)
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			// Seed: b, err := x.NextBatch() (or b := / b = forms).
			if len(as.Rhs) == 1 && isNextBatchCall(as.Rhs[0]) {
				if taintIdent(p, tainted, as.Lhs[0]) {
					changed = true
				}
				return true
			}
			// Propagate: local := b / local := b.Rows / local = b.Sel.
			for i, lhs := range as.Lhs {
				rhs := pairedRhs(as, i)
				if rhs == nil || !batchRef(p, tainted, rhs) {
					continue
				}
				if taintIdent(p, tainted, lhs) {
					changed = true
				}
			}
			return true
		})
	}
	return tainted
}

// pairedRhs returns the RHS expression feeding as.Lhs[i], or nil when the
// assignment is a multi-value unpacking (function call, map read) whose
// components cannot alias a batch slice wholesale.
func pairedRhs(as *ast.AssignStmt, i int) ast.Expr {
	if len(as.Lhs) == len(as.Rhs) {
		return as.Rhs[i]
	}
	return nil
}

func isNextBatchCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "NextBatch"
}

// batchRef reports whether e denotes a tainted batch or one of its slices:
// a tainted identifier, or a .Rows/.Sel selection on one.
func batchRef(p *analysis.Pass, tainted map[types.Object]bool, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return tainted[p.Info.ObjectOf(x)]
	case *ast.SelectorExpr:
		if x.Sel.Name != "Rows" && x.Sel.Name != "Sel" {
			return false
		}
		return batchRef(p, tainted, x.X)
	}
	return false
}

// isBatchSliceSel reports whether e is a .Rows/.Sel selection (as opposed to
// a bare batch variable) — the only forms a sanctioned splat-append can take.
func isBatchSliceSel(e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	return ok && (sel.Sel.Name == "Rows" || sel.Sel.Name == "Sel")
}

// taintIdent adds the object behind e (a plain, function-local identifier)
// to the tainted set, reporting whether the set grew.
func taintIdent(p *analysis.Pass, tainted map[types.Object]bool, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return false
	}
	obj := p.Info.ObjectOf(id)
	if obj == nil || tainted[obj] {
		return false
	}
	if v, ok := obj.(*types.Var); !ok || v.Parent() == p.Pkg.Scope() {
		return false // only function-local variables participate
	}
	tainted[obj] = true
	return true
}

// isLocalIdent reports whether lhs is a plain function-local identifier —
// the one assignment target that does not publish the batch.
func isLocalIdent(p *analysis.Pass, lhs ast.Expr) bool {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return false
	}
	if id.Name == "_" {
		return true
	}
	obj := p.Info.ObjectOf(id)
	v, ok := obj.(*types.Var)
	return ok && v.Parent() != p.Pkg.Scope()
}
