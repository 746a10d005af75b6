package checks

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/tools/dmlint/internal/analysis"
)

// SpanPair enforces the obs span discipline from PR4, until now prose
// only:
//
//  1. Every span begun with Trace.StartSpan/StartSpanStage is ended —
//     t.EndSpan(sp) plain or deferred — on every path out of the
//     function, or its ownership is handed to another holder (a
//     traced-cursor wrapper, a struct field). A span left open on an
//     error or cancellation path corrupts the statement's span tree.
//  2. Worker goroutines never touch the statement-owned trace: a
//     function literal launched with `go` or handed to any function or
//     method of package par must not reference a *obs.Trace, an
//     obs.SpanRef or an obs.StageTimer (both handles on the trace's reused
//     slab) captured from the enclosing statement goroutine. Fan-out is
//     recorded in span labels by the owner instead.
//
// Scoped to repro/internal/.
var SpanPair = &analysis.Analyzer{
	Name: "spanpair",
	Doc:  "obs spans must be ended on all paths and never escape to workers",
	Run:  runSpanPair,
}

type spanSpec struct{}

func (spanSpec) noun() string { return "span" }
func (spanSpec) hint() string {
	return "defer t.EndSpan(sp), end it on this path, or hand it to an owner"
}

func (spanSpec) acquires(p *analysis.Pass, call *ast.CallExpr, i int) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if sel.Sel.Name != "StartSpan" && sel.Sel.Name != "StartSpanStage" {
		return false
	}
	return isObsType(resultType(p, call, i), "SpanRef")
}

func (spanSpec) releases(_ *analysis.Pass, call *ast.CallExpr) []*ast.Ident {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "EndSpan" {
		return nil
	}
	var out []*ast.Ident
	for _, a := range call.Args {
		if id, ok := ast.Unparen(a).(*ast.Ident); ok {
			out = append(out, id)
		}
	}
	return out
}

// isObsType reports whether t is *obs.<name> (or obs.<name>) for the
// repro/internal/obs package.
func isObsType(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == "repro/internal/obs"
}

func runSpanPair(p *analysis.Pass) error {
	if !strings.HasPrefix(p.Pkg.Path(), "repro/internal/") {
		return nil
	}
	if p.Pkg.Path() == "repro/internal/obs" {
		return nil // the trace implementation manipulates its own stack
	}
	checkResourceFlow(p, spanSpec{})
	checkWorkerTraceEscape(p)
	return nil
}

// checkWorkerTraceEscape reports references to captured trace state —
// traceState's types — inside function literals that run on another
// goroutine: `go func(){...}` bodies and literals passed to a function or
// method of repro/internal/par (Forks.Run).
func checkWorkerTraceEscape(p *analysis.Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if fl, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
					reportTraceCaptures(p, fl, "goroutine")
				}
			case *ast.CallExpr:
				if !isParCall(p, n) {
					return true
				}
				for _, a := range n.Args {
					if fl, ok := ast.Unparen(a).(*ast.FuncLit); ok {
						reportTraceCaptures(p, fl, "par worker")
					}
				}
			}
			return true
		})
	}
}

// isParCall reports whether call invokes a function or method of the par
// package — par.NewForks(w).Run(...) as well as a package-level par.F(...).
func isParCall(p *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "repro/internal/par"
}

// traceState lists the obs types that are statement-owned tracing state,
// with the noun a report names them by.
var traceState = map[string]string{"Trace": "trace", "SpanRef": "span", "StageTimer": "stage timer"}

// traceStateNoun returns t's noun if t is one of traceState's types.
func traceStateNoun(t types.Type) (string, bool) {
	for name, noun := range traceState {
		if isObsType(t, name) {
			return noun, true
		}
	}
	return "", false
}

// reportTraceCaptures flags identifiers inside fl whose object is trace
// state declared outside the literal — statement-owned tracing state
// leaking onto a worker goroutine.
func reportTraceCaptures(p *analysis.Pass, fl *ast.FuncLit, where string) {
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := p.Info.Uses[id]
		if obj == nil {
			return true
		}
		noun, ok := traceStateNoun(obj.Type())
		if !ok {
			return true
		}
		// Declared inside the literal (its own params or locals) is fine.
		if obj.Pos() >= fl.Pos() && obj.Pos() <= fl.End() {
			return true
		}
		p.Reportf(id.Pos(), "%s %s is captured by a %s function literal; the trace is owned by the statement goroutine (record fan-out in span labels instead)",
			noun, id.Name, where)
		return true
	})
}
