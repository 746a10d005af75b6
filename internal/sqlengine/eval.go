package sqlengine

import (
	"fmt"
	"math"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/rowset"
)

// Env is the per-row frame a compiled expression runs against. Everything an
// expression needs that does not change from row to row — column ordinals,
// literals, LIKE patterns, the function a call names, the embedder's hooks —
// was settled by Compile; the frame carries only what does change.
type Env struct {
	// Row is the current input row, laid out as the schema given to Compile.
	Row rowset.Row
	// Ext is per-row state for the closures a Resolver returned: the current
	// group during post-aggregate evaluation, the current case during a
	// prediction join. Compile's own closures never read it.
	Ext any
}

// Compiled is an expression ready to run. It is immutable and captures no
// per-row state, so one Compiled serves every partition of a statement
// concurrently; each caller brings its own Env.
type Compiled func(env *Env) (rowset.Value, error)

// Test runs c as a condition: only TRUE passes (see Truthy).
func (c Compiled) Test(env *Env) (bool, error) {
	v, err := c(env)
	if err != nil {
		return false, err
	}
	return Truthy(v)
}

// Resolver is the embedder's compile-time hook. Compile offers it every column
// reference the schema cannot resolve and every function call (before the
// builtins); it answers with the closure that serves that node, or nil to
// decline. A node the resolver recognizes but cannot serve compiles to a
// closure returning the error, like Compile's own failures. The aggregation
// tail resolves aggregate call sites to slots of the group's value vector this
// way, and the DMX provider resolves model columns and prediction functions.
type Resolver func(e Expr) Compiled

// ResolveColumn resolves a (possibly qualified) column name against a schema
// whose columns may themselves carry "alias.name" qualified names (as built
// by joins). Resolution tries, in order: exact match of the full name; for
// unqualified names, a unique suffix match on the last dot component.
// Ambiguous unqualified names are an error.
func ResolveColumn(schema *rowset.Schema, qualifier, name string) (int, error) {
	full := name
	if qualifier != "" {
		full = qualifier + "." + name
	}
	// Exact (case-insensitive) match first.
	for i, c := range schema.Columns {
		if strings.EqualFold(c.Name, full) {
			return i, nil
		}
	}
	if qualifier == "" {
		found := -1
		for i, c := range schema.Columns {
			if strings.EqualFold(bareName(c.Name), name) {
				if found >= 0 {
					return 0, fmt.Errorf("sqlengine: ambiguous column %q", name)
				}
				found = i
			}
		}
		if found >= 0 {
			return found, nil
		}
	}
	return 0, unknownColumn(full)
}

// bareName is a column name without its qualifier: the text after the last
// dot.
func bareName(name string) string {
	return name[strings.LastIndex(name, ".")+1:]
}

// unknownColumn is ResolveColumn's usual failure. It is formatted only when it
// is reported, which it mostly is not: a projection asks about every item
// before the resolver does, and a model column fails here on its way to the
// embedder's Resolver.
type unknownColumn string

func (c unknownColumn) Error() string { return fmt.Sprintf("sqlengine: unknown column %q", string(c)) }

// Compile turns e into a closure over rows of schema. Names, literals, LIKE
// patterns, function names and arities and the resolver's hooks are settled
// here, once per statement. Compile itself never fails: whatever cannot be
// compiled — an unknown column, a wrong argument count, an aggregate outside
// GROUP BY — becomes a closure returning that error, so the error surfaces
// only on the first row that evaluates the node. A statement over no rows
// therefore succeeds, and a short-circuited operand never complains.
func Compile(e Expr, schema *rowset.Schema, resolve Resolver) Compiled {
	c := compiler{schema: schema, resolve: resolve}
	return c.compile(e)
}

// Eval compiles e and runs it once against row: for callers that evaluate an
// expression a single time (INSERT ... VALUES). Anything evaluated per row
// compiles once and keeps the closure.
func Eval(e Expr, schema *rowset.Schema, row rowset.Row) (rowset.Value, error) {
	return Compile(e, schema, nil)(&Env{Row: row})
}

// Truthy interprets a value as a WHERE-clause condition: only boolean true
// passes; NULL and false do not. Non-boolean values are an error.
func Truthy(v rowset.Value) (bool, error) {
	switch x := v.(type) {
	case nil:
		return false, nil
	case bool:
		return x, nil
	default:
		return false, fmt.Errorf("sqlengine: condition is %s, not BOOL", rowset.TypeOf(v))
	}
}

type compiler struct {
	schema  *rowset.Schema
	resolve Resolver
}

// Failing compiles to the deferred error err: what Compile, and a Resolver,
// return for a node that cannot be served.
func Failing(err error) Compiled {
	return func(*Env) (rowset.Value, error) { return nil, err }
}

func (c *compiler) compile(e Expr) Compiled {
	switch x := e.(type) {
	case *Literal:
		v := x.Val
		return func(*Env) (rowset.Value, error) { return v, nil }
	case *ColumnRef:
		ord, err := ResolveColumn(c.schema, x.Qualifier, x.Name)
		if err == nil {
			return func(env *Env) (rowset.Value, error) { return env.Row[ord], nil }
		}
		if c.resolve != nil {
			if fn := c.resolve(x); fn != nil {
				return fn
			}
		}
		return Failing(err)
	case *Binary:
		return c.binary(x)
	case *Unary:
		return c.unary(x)
	case *IsNull:
		arg, negate := c.compile(x.X), x.Negate
		return func(env *Env) (rowset.Value, error) {
			v, err := arg(env)
			if err != nil {
				return nil, err
			}
			return (v == nil) != negate, nil
		}
	case *In:
		return c.in(x)
	case *Between:
		return c.between(x)
	case *FuncCall:
		return c.call(x)
	}
	return Failing(fmt.Errorf("sqlengine: cannot evaluate %T", e))
}

// strict2 evaluates both operands left to right and applies op unless either
// is NULL, which propagates.
func strict2(l, r Compiled, op func(l, r rowset.Value) (rowset.Value, error)) Compiled {
	return func(env *Env) (rowset.Value, error) {
		lv, err := l(env)
		if err != nil {
			return nil, err
		}
		rv, err := r(env)
		if err != nil {
			return nil, err
		}
		if lv == nil || rv == nil {
			return nil, nil
		}
		return op(lv, rv)
	}
}

func (c *compiler) binary(b *Binary) Compiled {
	op := b.Op
	switch op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return c.comparison(b)
	}
	l, r := c.compile(b.L), c.compile(b.R)
	switch op {
	case OpAnd, OpOr:
		return logical(op, l, r)
	case OpLike:
		return like(b.R, l, r)
	case OpConcat:
		return strict2(l, r, func(lv, rv rowset.Value) (rowset.Value, error) {
			return rowset.FormatValue(lv) + rowset.FormatValue(rv), nil
		})
	case OpAdd, OpSub, OpMul, OpDiv:
		return strict2(l, r, func(lv, rv rowset.Value) (rowset.Value, error) {
			return evalArith(op, lv, rv)
		})
	}
	return Failing(fmt.Errorf("sqlengine: unknown operator"))
}

// comparison compiles l op r over rowset.Compare. The leaf most WHERE clauses
// are made of — a column of the schema against a literal, either way round —
// reads the row and the constant directly instead of through operand closures.
func (c *compiler) comparison(b *Binary) Compiled {
	op := b.Op
	col, lit, sign := b.L, b.R, 1
	if _, ok := col.(*Literal); ok {
		col, lit, sign = b.R, b.L, -1 // Compare is antisymmetric
	}
	if cr, ok := col.(*ColumnRef); ok {
		if l, ok := lit.(*Literal); ok && l.Val != nil {
			if ord, err := ResolveColumn(c.schema, cr.Qualifier, cr.Name); err == nil {
				val := l.Val
				return func(env *Env) (rowset.Value, error) {
					v := env.Row[ord]
					if v == nil {
						return nil, nil
					}
					return holds(op, sign*rowset.Compare(v, val)), nil
				}
			}
		}
	}
	l, r := c.compile(b.L), c.compile(b.R)
	return func(env *Env) (rowset.Value, error) {
		lv, err := l(env)
		if err != nil {
			return nil, err
		}
		rv, err := r(env)
		if err != nil {
			return nil, err
		}
		if lv == nil || rv == nil {
			return nil, nil
		}
		return holds(op, rowset.Compare(lv, rv)), nil
	}
}

// holds reports whether a comparison operator accepts rowset.Compare's result.
func holds(op BinaryOp, cmp int) bool {
	switch op {
	case OpEq:
		return cmp == 0
	case OpNe:
		return cmp != 0
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	}
	return cmp >= 0
}

// logical implements AND/OR in SQL three-valued logic, short-circuiting: the
// right operand is not evaluated (and cannot fail) once the left decides.
func logical(op BinaryOp, l, r Compiled) Compiled {
	errOperand := fmt.Errorf("sqlengine: %s requires BOOL operands", binOpNames[op])
	decides := op == OpOr // the operand value that settles the result alone
	return func(env *Env) (rowset.Value, error) {
		lv, err := l(env)
		if err != nil {
			return nil, err
		}
		lb, lIsBool := lv.(bool)
		if lv != nil && !lIsBool {
			return nil, errOperand
		}
		if lv != nil && lb == decides {
			return decides, nil
		}
		rv, err := r(env)
		if err != nil {
			return nil, err
		}
		rb, rIsBool := rv.(bool)
		if rv != nil && !rIsBool {
			return nil, errOperand
		}
		switch {
		case rv != nil && rb == decides:
			return decides, nil
		case lv == nil || rv == nil:
			return nil, nil
		}
		return !decides, nil
	}
}

// like compiles l LIKE r. A literal pattern — the usual case — is lower-cased
// and split into runes here; any other pattern is prepared per row.
func like(pattern Expr, l, r Compiled) Compiled {
	errOperand := fmt.Errorf("sqlengine: LIKE requires TEXT operands")
	var fixed likePattern
	if lit, ok := pattern.(*Literal); ok {
		if s, ok := lit.Val.(string); ok {
			fixed = compileLike(s)
		}
	}
	return strict2(l, r, func(lv, rv rowset.Value) (rowset.Value, error) {
		ls, lok := lv.(string)
		rs, rok := rv.(string)
		if !lok || !rok {
			return nil, errOperand
		}
		if fixed != nil {
			return fixed.match(ls), nil
		}
		return likeMatch(ls, rs), nil
	})
}

func evalArith(op BinaryOp, l, r rowset.Value) (rowset.Value, error) {
	// Integer arithmetic stays integral except division, which follows SQL
	// Server semantics only loosely: we promote to DOUBLE to avoid the
	// surprise of silent truncation in mining workloads.
	li, lInt := l.(int64)
	ri, rInt := r.(int64)
	if lInt && rInt && op != OpDiv {
		switch op {
		case OpAdd:
			return li + ri, nil
		case OpSub:
			return li - ri, nil
		case OpMul:
			return li * ri, nil
		}
	}
	lf, lok := rowset.ToFloat(l)
	rf, rok := rowset.ToFloat(r)
	if !lok || !rok {
		return nil, fmt.Errorf("sqlengine: arithmetic on non-numeric values (%s, %s)",
			rowset.TypeOf(l), rowset.TypeOf(r))
	}
	switch op {
	case OpAdd:
		return lf + rf, nil
	case OpSub:
		return lf - rf, nil
	case OpMul:
		return lf * rf, nil
	case OpDiv:
		if rf == 0 {
			return nil, nil // SQL: division by zero yields NULL here
		}
		return lf / rf, nil
	}
	return nil, fmt.Errorf("sqlengine: unknown arithmetic operator")
}

func (c *compiler) unary(u *Unary) Compiled {
	var op func(v rowset.Value) (rowset.Value, error)
	switch u.Op {
	case "NOT":
		op = func(v rowset.Value) (rowset.Value, error) {
			b, ok := v.(bool)
			if !ok {
				return nil, fmt.Errorf("sqlengine: NOT requires BOOL")
			}
			return !b, nil
		}
	case "-":
		op = func(v rowset.Value) (rowset.Value, error) {
			switch x := v.(type) {
			case int64:
				return -x, nil
			case float64:
				return -x, nil
			default:
				return nil, fmt.Errorf("sqlengine: cannot negate %s", rowset.TypeOf(v))
			}
		}
	default:
		return Failing(fmt.Errorf("sqlengine: unknown unary operator %q", u.Op))
	}
	arg := c.compile(u.X)
	return func(env *Env) (rowset.Value, error) {
		v, err := arg(env)
		if err != nil || v == nil {
			return nil, err
		}
		return op(v)
	}
}

func (c *compiler) in(in *In) Compiled {
	if in.Subquery != nil {
		return Failing(fmt.Errorf("sqlengine: unresolved IN subquery (execute through the engine)"))
	}
	x, negate := c.compile(in.X), in.Negate
	list := make([]Compiled, len(in.List))
	for i, item := range in.List {
		list[i] = c.compile(item)
	}
	// Items evaluate left to right and stop at the first match, so an item
	// past the match never fails the row.
	return func(env *Env) (rowset.Value, error) {
		xv, err := x(env)
		if err != nil || xv == nil {
			return nil, err
		}
		sawNull := false
		for _, item := range list {
			v, err := item(env)
			if err != nil {
				return nil, err
			}
			if v == nil {
				sawNull = true
				continue
			}
			if rowset.Compare(xv, v) == 0 {
				return !negate, nil
			}
		}
		if sawNull {
			return nil, nil // no match, but NULL in the list: unknown
		}
		return negate, nil
	}
}

func (c *compiler) between(b *Between) Compiled {
	x, lo, hi, negate := c.compile(b.X), c.compile(b.Lo), c.compile(b.Hi), b.Negate
	return func(env *Env) (rowset.Value, error) {
		xv, err := x(env)
		if err != nil {
			return nil, err
		}
		lov, err := lo(env)
		if err != nil {
			return nil, err
		}
		hiv, err := hi(env)
		if err != nil {
			return nil, err
		}
		if xv == nil || lov == nil || hiv == nil {
			return nil, nil
		}
		res := rowset.Compare(xv, lov) >= 0 && rowset.Compare(xv, hiv) <= 0
		return res != negate, nil
	}
}

// likePattern is a LIKE pattern lower-cased and split into runes: % matches
// any run of characters, _ any one character, everything else itself,
// case-insensitively (SQL Server default collation behaviour).
type likePattern []rune

func compileLike(pattern string) likePattern {
	return likePattern(strings.ToLower(pattern))
}

func likeMatch(s, pattern string) bool { return compileLike(pattern).match(s) }

// match walks s and the pattern with two cursors, remembering only the most
// recent %: on a mismatch that % absorbs one more character and matching
// resumes after it. Earlier %s never need revisiting — whatever they could
// absorb, the latest one can — so the cost is O(len(s)·len(p)) with no
// recursion, where backtracking over every % is exponential in their number.
func (p likePattern) match(s string) bool {
	si, pi := 0, 0 // byte offset into s, rune index into p
	starP, starS := -1, 0
	for si < len(s) {
		r, w := utf8.DecodeRuneInString(s[si:])
		if pi < len(p) {
			if p[pi] == '%' {
				pi++
				starP, starS = pi, si
				continue
			}
			if p[pi] == '_' || p[pi] == unicode.ToLower(r) {
				si, pi = si+w, pi+1
				continue
			}
		}
		if starP < 0 {
			return false
		}
		_, w = utf8.DecodeRuneInString(s[starS:])
		starS += w
		si, pi = starS, starP
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// aggregateFuncs are handled by the executor's GROUP BY machinery, never by
// scalar evaluation.
var aggregateFuncs = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"STDEV": true, "VAR": true,
}

// IsAggregate reports whether e is a call to an aggregate function.
func IsAggregate(e Expr) bool {
	f, ok := e.(*FuncCall)
	return ok && aggregateFuncs[f.Name]
}

// ContainsAggregate reports whether the expression tree contains an
// aggregate function call.
func ContainsAggregate(e Expr) bool {
	found := false
	aggregatesIn(e, func(*FuncCall) { found = true })
	return found
}

// call compiles a function call: the resolver's closure, else a builtin scalar
// function looked up by name and checked for arity here. Arguments evaluate
// eagerly, left to right, before the function (or its lookup failure) gets a
// say — IIF and COALESCE included.
func (c *compiler) call(f *FuncCall) Compiled {
	if c.resolve != nil {
		if fn := c.resolve(f); fn != nil {
			return fn
		}
	}
	if aggregateFuncs[f.Name] {
		return Failing(fmt.Errorf("sqlengine: aggregate %s used outside GROUP BY context", f.Name))
	}
	args := make([]Compiled, len(f.Args))
	for i, a := range f.Args {
		args[i] = c.compile(a)
	}
	if f.Name == "ROUND" && len(args) == 1 {
		args = append(args, func(*Env) (rowset.Value, error) { return int64(0), nil })
	}
	sf, ok := scalarFuncs[f.Name]
	var callErr error
	switch {
	case !ok:
		callErr = fmt.Errorf("sqlengine: unknown function %s", f.Name)
	case sf.arity >= 0 && len(args) != sf.arity:
		callErr = fmt.Errorf("sqlengine: %s takes %d argument(s), got %d", f.Name, sf.arity, len(args))
	}
	return func(env *Env) (rowset.Value, error) {
		vals := make([]rowset.Value, len(args))
		for i, a := range args {
			v, err := a(env)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		if callErr != nil {
			return nil, callErr
		}
		return sf.fn(vals)
	}
}

// scalarFunc is one builtin: its exact argument count (-1: any) and its body.
type scalarFunc struct {
	arity int
	fn    func(args []rowset.Value) (rowset.Value, error)
}

var scalarFuncs = map[string]scalarFunc{
	"LEN":       {1, fnLen},
	"LENGTH":    {1, fnLen},
	"UPPER":     {1, textFn(strings.ToUpper)},
	"LOWER":     {1, textFn(strings.ToLower)},
	"TRIM":      {1, textFn(strings.TrimSpace)},
	"SUBSTRING": {3, fnSubstring},
	"ABS":       {1, fnAbs},
	"ROUND":     {2, fnRound},
	"FLOOR":     {1, floatFn(math.Floor)},
	"CEILING":   {1, floatFn(math.Ceil)},
	"CEIL":      {1, floatFn(math.Ceil)},
	"SQRT":      {1, floatFn(math.Sqrt)},
	"COALESCE":  {-1, fnCoalesce},
	"IIF":       {3, fnIIF},
}

// LEN and SUBSTRING count characters, not bytes.
func fnLen(args []rowset.Value) (rowset.Value, error) {
	if args[0] == nil {
		return nil, nil
	}
	s, ok := args[0].(string)
	if !ok {
		return nil, fmt.Errorf("sqlengine: LEN requires TEXT")
	}
	return int64(utf8.RuneCountInString(s)), nil
}

func fnSubstring(args []rowset.Value) (rowset.Value, error) {
	if args[0] == nil {
		return nil, nil
	}
	s, ok := args[0].(string)
	start, ok2 := args[1].(int64)
	length, ok3 := args[2].(int64)
	if !ok || !ok2 || !ok3 {
		return nil, fmt.Errorf("sqlengine: SUBSTRING(text, long, long)")
	}
	// SQL is 1-based; a start before the string clamps to its first character.
	lo := 0
	if start > 1 {
		lo = charOffset(s, start-1)
	}
	return s[lo : lo+charOffset(s[lo:], length)], nil
}

// charOffset returns the byte offset just past s's first n characters,
// clamped to the string: 0 for n <= 0, len(s) when s has fewer than n. The
// count is clamped by the walk itself, so no sum of caller-supplied numbers
// can wrap around.
func charOffset(s string, n int64) int {
	off := 0
	for ; n > 0 && off < len(s); n-- {
		_, w := utf8.DecodeRuneInString(s[off:])
		off += w
	}
	return off
}

func fnAbs(args []rowset.Value) (rowset.Value, error) {
	switch x := args[0].(type) {
	case nil:
		return nil, nil
	case int64:
		if x < 0 {
			return -x, nil
		}
		return x, nil
	case float64:
		return math.Abs(x), nil
	default:
		return nil, fmt.Errorf("sqlengine: ABS requires a number")
	}
}

func fnRound(args []rowset.Value) (rowset.Value, error) {
	if args[0] == nil {
		return nil, nil
	}
	f, ok := rowset.ToFloat(args[0])
	d, ok2 := args[1].(int64)
	if !ok || !ok2 {
		return nil, fmt.Errorf("sqlengine: ROUND(number, long)")
	}
	p := math.Pow(10, float64(d))
	return math.Round(f*p) / p, nil
}

func fnCoalesce(args []rowset.Value) (rowset.Value, error) {
	for _, a := range args {
		if a != nil {
			return a, nil
		}
	}
	return nil, nil
}

func fnIIF(args []rowset.Value) (rowset.Value, error) {
	cond, err := Truthy(args[0])
	if err != nil {
		return nil, err
	}
	if cond {
		return args[1], nil
	}
	return args[2], nil
}

func textFn(fn func(string) string) func([]rowset.Value) (rowset.Value, error) {
	return func(args []rowset.Value) (rowset.Value, error) {
		if args[0] == nil {
			return nil, nil
		}
		s, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("sqlengine: function requires TEXT, got %s", rowset.TypeOf(args[0]))
		}
		return fn(s), nil
	}
}

func floatFn(fn func(float64) float64) func([]rowset.Value) (rowset.Value, error) {
	return func(args []rowset.Value) (rowset.Value, error) {
		if args[0] == nil {
			return nil, nil
		}
		f, ok := rowset.ToFloat(args[0])
		if !ok {
			return nil, fmt.Errorf("sqlengine: function requires a number, got %s", rowset.TypeOf(args[0]))
		}
		return fn(f), nil
	}
}
