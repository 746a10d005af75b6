package checks

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/tools/dmlint/internal/analysis"
)

// This file implements the intra-procedural path walker shared by the
// cursorclose and spanpair analyzers. Both enforce the same shape of
// invariant — "a resource acquired here must reach its release on every
// path out of the function" — over different resources (rowset.Cursor,
// obs.SpanRef).
//
// The walker is a conservative abstract interpreter over the statement
// tree: it tracks local variables bound to a resource-producing call and
// follows every syntactic path (if/else, switch/select cases, loop
// bodies), reporting a diagnostic at each return (or fall-off-the-end)
// where a tracked resource is still live. Ownership transfers — passing
// the resource to another call, returning it, storing it in a field,
// slice, map, or closure — resolve the obligation: whoever received the
// value owns its release (the documented Cursor contract). Error-paired
// acquisitions (`c, err := f()`) are dropped inside the `err != nil`
// branch, matching Go's convention that a failed constructor returns a
// nil resource. The analysis is intentionally intra-procedural and
// syntactic: no SSA, no interprocedural summaries — the repository's
// operator constructors are written so local reasoning is enough.

// resourceSpec parameterizes the walker over one resource kind.
type resourceSpec interface {
	// noun names the resource in diagnostics ("cursor", "span").
	noun() string
	// hint suggests the idiomatic fix in diagnostics.
	hint() string
	// acquires reports whether result i of call hands the caller a
	// resource it must release.
	acquires(p *analysis.Pass, call *ast.CallExpr, i int) bool
	// releases returns the identifiers this call releases (the receiver
	// of c.Close(), the argument of t.EndSpan(sp)); the walker filters
	// them against its tracked set.
	releases(p *analysis.Pass, call *ast.CallExpr) []*ast.Ident
}

// resVar is one live obligation: a local bound to an unreleased resource.
type resVar struct {
	name string
	pos  token.Pos    // acquisition site
	err  types.Object // paired error result, nil if none
}

// resState maps a local's object to its live obligation. Presence in the
// map means "still owes a release on this path".
type resState map[types.Object]*resVar

func (s resState) clone() resState {
	out := make(resState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// flowWalker walks one function body for one resource kind.
type flowWalker struct {
	pass *analysis.Pass
	spec resourceSpec
}

// checkResourceFlow runs spec's obligation analysis over every function
// and function literal in the package.
func checkResourceFlow(p *analysis.Pass, spec resourceSpec) {
	w := &flowWalker{pass: p, spec: spec}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w.checkBody(fd.Body)
			// Function literals get their own walk with a fresh state:
			// resources they acquire are their own obligation, while the
			// enclosing walk treats captured outer resources as
			// transferred.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					w.checkBody(fl.Body)
				}
				return true
			})
		}
	}
}

func (w *flowWalker) checkBody(body *ast.BlockStmt) {
	st := make(resState)
	terminated := w.walk(body.List, st)
	if !terminated {
		w.reportLive(st, body.Rbrace, "function end")
	}
}

// reportLive flags every obligation still live at pos.
func (w *flowWalker) reportLive(st resState, pos token.Pos, where string) {
	for _, rv := range st {
		w.pass.Reportf(pos, "%s %s (acquired at line %d) is not released on this path (%s); %s",
			w.spec.noun(), rv.name, w.pass.Fset.Position(rv.pos).Line, where, w.spec.hint())
	}
}

// walk interprets stmts in order, mutating st. It returns true when the
// path terminates (return, panic, branch) before reaching the end.
func (w *flowWalker) walk(stmts []ast.Stmt, st resState) bool {
	for _, s := range stmts {
		if w.walkStmt(s, st) {
			return true
		}
	}
	return false
}

func (w *flowWalker) walkStmt(s ast.Stmt, st resState) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		w.handleAssign(s, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) == 0 {
					continue
				}
				w.handleBinding(vs.Names, vs.Values, vs.Pos(), st)
			}
		}
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && isPanicCall(w.pass, call) {
			w.scanExpr(s.X, true, st)
			return true
		}
		w.scanExpr(s.X, true, st)
	case *ast.DeferStmt:
		// A deferred release resolves the obligation from this point on;
		// any other deferred call (including closures capturing the
		// resource) transfers ownership to the deferred body.
		w.applyReleases(s.Call, st)
		w.scanExpr(s.Call, true, st)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.scanExpr(r, true, st)
		}
		w.reportLive(st, s.Pos(), "return")
		return true
	case *ast.IfStmt:
		return w.walkIf(s, st)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		if s.Tag != nil {
			w.scanExpr(s.Tag, false, st)
		}
		return w.walkClauses(s.Body, st, !switchHasDefault(s.Body))
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		// `switch x := c.(type)` aliases c; treat as a transfer so the
		// per-case binding owns it.
		w.walkStmt(s.Assign, st)
		return w.walkClauses(s.Body, st, !switchHasDefault(s.Body))
	case *ast.SelectStmt:
		return w.walkClauses(s.Body, st, false)
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		if s.Cond != nil {
			w.scanExpr(s.Cond, false, st)
		}
		w.walkLoopBody(s.Body, st)
		if s.Post != nil {
			w.walkStmt(s.Post, st.clone())
		}
	case *ast.RangeStmt:
		w.scanExpr(s.X, false, st)
		w.walkLoopBody(s.Body, st)
	case *ast.GoStmt:
		w.scanExpr(s.Call, true, st)
	case *ast.SendStmt:
		w.scanExpr(s.Chan, false, st)
		w.scanExpr(s.Value, true, st)
	case *ast.IncDecStmt:
		w.scanExpr(s.X, false, st)
	case *ast.BlockStmt:
		return w.walk(s.List, st)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, st)
	case *ast.BranchStmt:
		// break/continue/goto leave the straight-line path; treated as
		// silent terminators (conservative: may under-report, never
		// over-reports).
		return true
	}
	return false
}

// walkLoopBody interprets a loop body once. Obligations acquired inside
// the body must be resolved by its end — a resource still live when the
// iteration wraps around leaks once per row.
func (w *flowWalker) walkLoopBody(body *ast.BlockStmt, st resState) {
	inner := st.clone()
	terminated := w.walk(body.List, inner)
	if !terminated {
		acquiredInside := make(resState)
		for obj, rv := range inner {
			if _, preexisting := st[obj]; !preexisting {
				acquiredInside[obj] = rv
			}
		}
		w.reportLive(acquiredInside, body.Rbrace, "end of loop iteration")
	}
	// Releases of outer obligations inside the body are not credited: the
	// body may execute zero times, so the outer path still owes them.
}

func (w *flowWalker) walkIf(s *ast.IfStmt, st resState) bool {
	if s.Init != nil {
		w.walkStmt(s.Init, st)
	}
	w.scanExpr(s.Cond, false, st)

	thenSt := st.clone()
	var elseSt resState
	if s.Else != nil {
		elseSt = st.clone()
	} else {
		elseSt = st.clone() // fall-through path
	}
	w.applyNilGuards(s.Cond, thenSt, elseSt)

	thenTerm := w.walk(s.Body.List, thenSt)
	elseTerm := false
	if s.Else != nil {
		elseTerm = w.walkStmt(s.Else, elseSt)
	}

	switch {
	case thenTerm && elseTerm:
		return true
	case thenTerm:
		replaceState(st, elseSt)
	case elseTerm:
		replaceState(st, thenSt)
	default:
		// Both fall through: an obligation survives if it is live on
		// either path.
		merged := unionState(thenSt, elseSt)
		replaceState(st, merged)
	}
	return false
}

// applyNilGuards models the two conventions that make an obligation
// conditionally dead: `if err != nil` (the paired constructor failed, so
// the resource is nil) and `if c == nil` (the resource itself is nil).
func (w *flowWalker) applyNilGuards(cond ast.Expr, thenSt, elseSt resState) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return
	}
	var id *ast.Ident
	if i, ok := ast.Unparen(be.X).(*ast.Ident); ok && isNilIdent(w.pass, be.Y) {
		id = i
	} else if i, ok := ast.Unparen(be.Y).(*ast.Ident); ok && isNilIdent(w.pass, be.X) {
		id = i
	}
	if id == nil {
		return
	}
	obj := w.pass.Info.Uses[id]
	if obj == nil {
		return
	}
	// nilSide is the state on the path where the compared value is nil.
	nilSide := thenSt
	if be.Op == token.NEQ {
		nilSide = elseSt
	}
	// The resource itself compared against nil: it is nil on nilSide.
	delete(nilSide, obj)
	// The paired error compared against nil: the acquisition failed on
	// the side where err is NON-nil.
	errSide := elseSt
	if be.Op == token.NEQ {
		errSide = thenSt
	}
	for robj, rv := range errSide {
		if rv.err == obj {
			delete(errSide, robj)
		}
	}
}

func isNilIdent(p *analysis.Pass, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil" && p.Info.Uses[id] == types.Universe.Lookup("nil")
}

// walkClauses forks the state per case/comm clause and merges the
// survivors. withImplicitDefault adds the entry state as an extra
// surviving path (a switch without default may match nothing).
func (w *flowWalker) walkClauses(body *ast.BlockStmt, st resState, withImplicitDefault bool) bool {
	var survivors []resState
	for _, c := range body.List {
		clauseSt := st.clone()
		var stmts []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				w.scanExpr(e, false, clauseSt)
			}
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				w.walkStmt(c.Comm, clauseSt)
			}
			stmts = c.Body
		}
		if !w.walk(stmts, clauseSt) {
			survivors = append(survivors, clauseSt)
		}
	}
	if withImplicitDefault {
		survivors = append(survivors, st.clone())
	}
	if len(survivors) == 0 {
		return true
	}
	merged := survivors[0]
	for _, s := range survivors[1:] {
		merged = unionState(merged, s)
	}
	replaceState(st, merged)
	return false
}

func switchHasDefault(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

func unionState(a, b resState) resState {
	out := a.clone()
	for k, v := range b {
		out[k] = v
	}
	return out
}

func replaceState(dst, src resState) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

// handleAssign processes acquisitions, releases, transfers, and live-var
// overwrites in one assignment.
func (w *flowWalker) handleAssign(s *ast.AssignStmt, st resState) {
	names := make([]*ast.Ident, len(s.Lhs))
	for i, l := range s.Lhs {
		if id, ok := ast.Unparen(l).(*ast.Ident); ok {
			names[i] = id
		} else {
			// Field/index targets transfer anything assigned into them;
			// the RHS scan below handles that. Scanning the base
			// expression catches releases in index expressions.
			w.scanExpr(l, false, st)
		}
	}
	w.handleBinding(names, s.Rhs, s.Pos(), st)
}

// handleBinding is the shared core of := / = / var bindings: names[i]
// receives values[i] (or result i of a single multi-value call).
func (w *flowWalker) handleBinding(names []*ast.Ident, values []ast.Expr, pos token.Pos, st resState) {
	// Single call on the RHS: its results may acquire.
	if len(values) == 1 {
		if call, ok := ast.Unparen(values[0]).(*ast.CallExpr); ok {
			w.scanExpr(call, true, st) // args may transfer/release first
			w.bindCallResults(names, call, pos, st)
			return
		}
	}
	for i, v := range values {
		// `_ = c` discards a bare identifier without handing it anywhere:
		// not a transfer, the obligation stays live.
		blankLHS := i < len(names) && names[i] != nil && names[i].Name == "_"
		_, bareIdent := ast.Unparen(v).(*ast.Ident)
		w.scanExpr(v, !(blankLHS && bareIdent), st)
		if i < len(names) && names[i] != nil {
			w.maybeOverwrite(names[i], pos, st)
		}
	}
	// n := v aliasing is handled by scanExpr treating the RHS ident as a
	// transfer, so the alias owns the obligation conservatively.
	if len(values) == 1 && len(names) > 1 {
		for _, n := range names {
			if n != nil {
				w.maybeOverwrite(n, pos, st)
			}
		}
	}
}

// bindCallResults tracks acquisitions produced by call into names and
// flags overwrites of still-live obligations.
func (w *flowWalker) bindCallResults(names []*ast.Ident, call *ast.CallExpr, pos token.Pos, st resState) {
	// Locate a paired error result, if the call has one.
	var errObj types.Object
	if tv, ok := w.pass.Info.Types[call]; ok {
		if tuple, ok := tv.Type.(*types.Tuple); ok {
			for i := 0; i < tuple.Len() && i < len(names); i++ {
				if names[i] == nil || names[i].Name == "_" {
					continue
				}
				if isErrorType(tuple.At(i).Type()) {
					errObj = w.pass.Info.Defs[names[i]]
					if errObj == nil {
						errObj = w.pass.Info.Uses[names[i]]
					}
				}
			}
		}
	}
	for i, n := range names {
		if !w.spec.acquires(w.pass, call, i) {
			if n != nil {
				w.maybeOverwrite(n, pos, st)
			}
			continue
		}
		if n == nil {
			// Assigned into a field, slice, or map: ownership transfers
			// to that holder.
			continue
		}
		if n.Name == "_" {
			w.pass.Reportf(pos, "%s returned by this call is discarded without being released; %s",
				w.spec.noun(), w.spec.hint())
			continue
		}
		w.maybeOverwrite(n, pos, st)
		obj := w.pass.Info.Defs[n]
		if obj == nil {
			obj = w.pass.Info.Uses[n]
		}
		if obj == nil {
			continue
		}
		st[obj] = &resVar{name: n.Name, pos: n.Pos(), err: errObj}
	}
}

// maybeOverwrite reports when an assignment clobbers a variable whose
// obligation is still live — the old resource becomes unreachable.
func (w *flowWalker) maybeOverwrite(n *ast.Ident, pos token.Pos, st resState) {
	obj := w.pass.Info.Uses[n]
	if obj == nil {
		return
	}
	if rv, live := st[obj]; live {
		w.pass.Reportf(pos, "%s %s (acquired at line %d) is overwritten while still unreleased; %s",
			w.spec.noun(), rv.name, w.pass.Fset.Position(rv.pos).Line, w.spec.hint())
		delete(st, obj)
	}
}

// applyReleases resolves the obligations this call releases.
func (w *flowWalker) applyReleases(call *ast.CallExpr, st resState) bool {
	any := false
	for _, id := range w.spec.releases(w.pass, call) {
		obj := w.pass.Info.Uses[id]
		if obj == nil {
			continue
		}
		if _, live := st[obj]; live {
			delete(st, obj)
			any = true
		}
	}
	return any
}

// scanExpr applies releases and ownership transfers inside an expression.
// transfer reports whether a bare tracked identifier in this position
// hands the resource to someone else (RHS of an assignment, a call
// argument, a return value, a composite-literal element) as opposed to
// merely being used (a nil comparison, a method receiver).
func (w *flowWalker) scanExpr(e ast.Expr, transfer bool, st resState) {
	switch e := e.(type) {
	case nil:
		return
	case *ast.Ident:
		if !transfer {
			return
		}
		if obj := w.pass.Info.Uses[e]; obj != nil {
			delete(st, obj) // ownership handed off
		}
	case *ast.CallExpr:
		w.applyReleases(e, st)
		// A method call on a tracked resource (c.Next(), sp.SetLabel())
		// is a use, not a transfer; anything else passing the resource
		// as an argument transfers it.
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
				if obj := w.pass.Info.Uses[id]; obj != nil {
					if _, live := st[obj]; live {
						for _, a := range e.Args {
							w.scanExpr(a, true, st)
						}
						return
					}
				}
			}
		}
		w.scanExpr(e.Fun, false, st)
		for _, a := range e.Args {
			w.scanExpr(a, true, st)
		}
	case *ast.ParenExpr:
		w.scanExpr(e.X, transfer, st)
	case *ast.SelectorExpr:
		// c.field in a transfer position aliases through the base.
		w.scanExpr(e.X, transfer, st)
	case *ast.StarExpr:
		w.scanExpr(e.X, transfer, st)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			w.scanExpr(e.X, true, st)
		} else {
			w.scanExpr(e.X, transfer, st)
		}
	case *ast.BinaryExpr:
		// Comparisons and arithmetic use values without consuming them.
		w.scanExpr(e.X, false, st)
		w.scanExpr(e.Y, false, st)
	case *ast.IndexExpr:
		w.scanExpr(e.X, false, st)
		w.scanExpr(e.Index, false, st)
	case *ast.SliceExpr:
		w.scanExpr(e.X, false, st)
	case *ast.TypeAssertExpr:
		w.scanExpr(e.X, transfer, st)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			w.scanExpr(el, true, st)
		}
	case *ast.KeyValueExpr:
		w.scanExpr(e.Value, true, st)
	case *ast.FuncLit:
		// Capturing a tracked resource in a closure transfers ownership
		// to the closure (deferred cleanups, goroutine bodies).
		ast.Inspect(e.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := w.pass.Info.Uses[id]; obj != nil {
					delete(st, obj)
				}
			}
			return true
		})
	}
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

func isPanicCall(p *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	obj := p.Info.Uses[id]
	_, isBuiltin := obj.(*types.Builtin)
	return isBuiltin
}

// lookupInterface resolves a named interface type from an imported
// package (or the package under analysis itself), returning nil when the
// package is not in the import graph — in which case the dependent
// analyzer has nothing to check.
func lookupInterface(p *analysis.Pass, pkgPath, name string) *types.Interface {
	var scope *types.Scope
	if p.Pkg.Path() == pkgPath {
		scope = p.Pkg.Scope()
	} else {
		for _, imp := range p.Pkg.Imports() {
			if imp.Path() == pkgPath {
				scope = imp.Scope()
				break
			}
		}
	}
	if scope == nil {
		return nil
	}
	obj := scope.Lookup(name)
	if obj == nil {
		return nil
	}
	iface, ok := obj.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	return iface
}

// resultType returns the type of result i of call, or nil.
func resultType(p *analysis.Pass, call *ast.CallExpr, i int) types.Type {
	tv, ok := p.Info.Types[call]
	if !ok {
		return nil
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		if i < t.Len() {
			return t.At(i).Type()
		}
		return nil
	default:
		if i == 0 {
			return t
		}
		return nil
	}
}
