package sqlengine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/lex"
	"repro/internal/rowset"
)

func mustParseSelect(t *testing.T, q string) *SelectStmt {
	t.Helper()
	st, err := Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want *SelectStmt", q, st)
	}
	return sel
}

func TestParseParamPlaceholders(t *testing.T) {
	sel := mustParseSelect(t, "SELECT a FROM t WHERE x = ? AND y = @low AND z BETWEEN @low AND ?")
	ps := CollectParams(sel)
	if len(ps) != 4 {
		t.Fatalf("params = %d, want 4", len(ps))
	}
	// CollectParams returns source order.
	wantNames := []string{"", "low", "low", ""}
	for i, p := range ps {
		if p.Name != wantNames[i] {
			t.Errorf("param %d name = %q, want %q", i, p.Name, wantNames[i])
		}
	}
	for i := 1; i < len(ps); i++ {
		if ps[i].TokPos <= ps[i-1].TokPos {
			t.Errorf("params out of source order at %d", i)
		}
	}
}

func TestParseParamSkipsQuoted(t *testing.T) {
	sel := mustParseSelect(t, "SELECT '?' FROM t WHERE x = ? AND y = 'a@b'")
	if n := len(CollectParams(sel)); n != 1 {
		t.Errorf("params = %d, want 1 ('?' in string and '@' in string are text)", n)
	}
}

func TestAssignOrdinalsPositional(t *testing.T) {
	sel := mustParseSelect(t, "SELECT a FROM t WHERE x = ? AND y = ?")
	slots, err := AssignParams(sel)
	if err != nil {
		t.Fatal(err)
	}
	if len(slots) != 2 {
		t.Fatalf("slots = %d, want 2", len(slots))
	}
	ps := CollectParams(sel)
	if ps[0].Ordinal != 0 || ps[1].Ordinal != 1 {
		t.Errorf("ordinals = %d, %d", ps[0].Ordinal, ps[1].Ordinal)
	}
}

func TestAssignOrdinalsNamedShareSlots(t *testing.T) {
	sel := mustParseSelect(t, "SELECT a FROM t WHERE x = @v OR y = @V OR z = @other")
	slots, err := AssignParams(sel)
	if err != nil {
		t.Fatal(err)
	}
	// @v and @V are one parameter (names fold); @other is a second.
	if len(slots) != 2 {
		t.Fatalf("slots = %d, want 2 (%v)", len(slots), slots)
	}
	ps := CollectParams(sel)
	if ps[0].Ordinal != 0 || ps[1].Ordinal != 0 || ps[2].Ordinal != 1 {
		t.Errorf("ordinals = %d, %d, %d, want 0, 0, 1", ps[0].Ordinal, ps[1].Ordinal, ps[2].Ordinal)
	}
}

func TestAssignOrdinalsRejectsMixedStyles(t *testing.T) {
	sel := mustParseSelect(t, "SELECT a FROM t WHERE x = ? AND y = @v")
	if _, err := AssignParams(sel); err == nil || !strings.Contains(err.Error(), "mix") {
		t.Errorf("mixed placeholder styles must error, got %v", err)
	}
}

func TestBindStatementClonesNotMutates(t *testing.T) {
	sel := mustParseSelect(t, "SELECT a FROM t WHERE x = ? AND y > ?")
	if _, err := AssignParams(sel); err != nil {
		t.Fatal(err)
	}
	bound, err := Bind[Statement](sel, []rowset.Value{int64(7), "s"})
	if err != nil {
		t.Fatal(err)
	}
	bsel := bound.(*SelectStmt)
	if bsel == sel {
		t.Fatal("Bind must copy, not mutate")
	}
	// The bound tree carries literals...
	if n := len(CollectParams(bsel)); n != 0 {
		t.Errorf("bound statement still has %d params", n)
	}
	// ...while the original keeps its placeholders (it is shared plan state).
	if n := len(CollectParams(sel)); n != 2 {
		t.Errorf("original statement params = %d, want 2", n)
	}
	var lits []rowset.Value
	inspectStatement(bsel, func(e Expr) bool {
		if l, ok := e.(*Literal); ok {
			lits = append(lits, l.Val)
		}
		return true
	})
	found := 0
	for _, v := range lits {
		if v == int64(7) || v == "s" {
			found++
		}
	}
	if found != 2 {
		t.Errorf("bound literals = %v, want 7 and \"s\"", lits)
	}
}

func TestBindStatementArity(t *testing.T) {
	sel := mustParseSelect(t, "SELECT a FROM t WHERE x = ?")
	if _, err := AssignParams(sel); err != nil {
		t.Fatal(err)
	}
	if _, err := Bind(sel, nil); err == nil {
		t.Error("binding zero args over one param must error")
	}
}

func TestBindAbsentAndForeignNodes(t *testing.T) {
	if e, err := Bind(Expr(nil), nil); e != nil || err != nil {
		t.Errorf("Bind(nil Expr) = (%v, %v), want (nil, nil)", e, err)
	}
	if _, err := Bind(42, nil); err == nil {
		t.Error("Bind of a non-AST value must error, not bind nothing")
	}
}

func TestInferParamTypes(t *testing.T) {
	sel := mustParseSelect(t, "SELECT a FROM t WHERE id = ? AND name LIKE ? AND age BETWEEN ? AND ?")
	slots, err := AssignParams(sel)
	if err != nil {
		t.Fatal(err)
	}
	types := map[string]rowset.Type{"id": rowset.TypeLong, "age": rowset.TypeDouble}
	InferParamTypes(sel, slots, func(cr *ColumnRef) (rowset.Type, bool) {
		tt, ok := types[strings.ToLower(cr.Name)]
		return tt, ok
	})
	want := []rowset.Type{rowset.TypeLong, rowset.TypeText, rowset.TypeDouble, rowset.TypeDouble}
	for i, s := range slots {
		if s.Type != want[i] {
			t.Errorf("slot %d type = %v, want %v", i, s.Type, want[i])
		}
	}
}

func TestReferencedTables(t *testing.T) {
	sel := mustParseSelect(t,
		"SELECT a FROM T JOIN U ON T.id = U.id WHERE x IN (SELECT y FROM V)")
	got := ReferencedTables(sel)
	want := map[string]bool{"t": true, "u": true, "v": true}
	if len(got) != len(want) {
		t.Fatalf("tables = %v", got)
	}
	for _, n := range got {
		if !want[n] {
			t.Errorf("unexpected table %q", n)
		}
	}
}

func TestParamLabel(t *testing.T) {
	if l := (ParamSlot{Name: "v"}).Label(2); l != "@v" {
		t.Errorf("named label = %q", l)
	}
	if l := (ParamSlot{}).Label(2); l != "3" {
		t.Errorf("positional label = %q (1-based position)", l)
	}
}

// countPlaceholderTokens is the oracle for the fuzz test. A '?' punct token
// can only ever parse as a parameter, so its count is exact. An '@name'
// identifier token is merely an upper bound: grammar positions that take a
// bare identifier (an alias, for example "SELECT 0 @x") consume it as a
// plain name instead.
func countPlaceholderTokens(q string) (exact, bound int, ok bool) {
	toks, err := lex.Tokenize(q)
	if err != nil {
		return 0, 0, false
	}
	for _, tk := range toks {
		if tk.Kind == lex.Punct && tk.Text == "?" {
			exact++
		}
		if tk.Kind == lex.Ident && !tk.Quoted && len(tk.Text) > 1 && strings.HasPrefix(tk.Text, "@") {
			bound++
		}
	}
	return exact, exact + bound, true
}

// FuzzParamBind drives the placeholder machinery with arbitrary statement
// text: whatever parses must collect exactly the placeholder tokens the
// lexer sees (quoted '?' is text), ordinal assignment must be total or fail
// cleanly, and binding with matching arity must never panic or leave a
// parameter behind.
func FuzzParamBind(f *testing.F) {
	for _, seed := range []string{
		"SELECT a FROM t WHERE x = ?",
		"SELECT a FROM t WHERE x = ? AND y = ?",
		"SELECT a FROM t WHERE name = 'O''Brien' AND x = ?",
		"SELECT '?' FROM t WHERE x = ?",
		"SELECT a FROM t WHERE x = @p AND y = @p",
		"SELECT a FROM [t?] WHERE [x?] = ?",
		"SELECT a FROM t WHERE x = ? AND y = @mixed",
		"SELECT a FROM t WHERE x IN (?, ?, ?)",
		"SELECT a FROM t WHERE x IN (SELECT y FROM u WHERE z = ?)",
		"INSERT INTO t VALUES (?, 'it''s', ?)",
		"UPDATE t SET a = ? WHERE b = ?",
		"DELETE FROM t WHERE a = ?",
		"SELECT a FROM t WHERE x = '?' || '@y'",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, q string) {
		st, err := Parse(q)
		if err != nil || st == nil {
			return
		}
		ps := CollectParams(st)
		if exact, bound, ok := countPlaceholderTokens(q); ok {
			if len(ps) < exact || len(ps) > bound {
				t.Fatalf("CollectParams = %d, lexer sees [%d,%d] placeholders in %q", len(ps), exact, bound, q)
			}
		}
		slots, err := AssignParams(st)
		if err != nil {
			return // mixed styles: a clean, expected failure
		}
		for _, p := range ps {
			if p.Ordinal < 0 || p.Ordinal >= len(slots) {
				t.Fatalf("param ordinal %d out of range [0,%d) in %q", p.Ordinal, len(slots), q)
			}
		}
		args := make([]rowset.Value, len(slots))
		for i := range args {
			args[i] = int64(i)
		}
		bound, err := Bind(st, args)
		if err != nil {
			t.Fatalf("Bind(%q): %v", q, err)
		}
		if n := len(CollectParams(bound)); n != 0 {
			t.Fatalf("bound statement of %q still has %d params", q, n)
		}
		// Underbinding must fail, not panic (when there is at least one slot).
		if len(slots) > 0 {
			if _, err := Bind(st, args[:len(args)-1]); err == nil {
				t.Fatalf("underbinding %q must error", q)
			}
		}
	})
}

// renderStatement prints every expression node of st, subqueries included,
// so a test can tell whether anything under st changed.
func renderStatement(st Statement) string {
	var b strings.Builder
	inspectStatement(st, func(e Expr) bool {
		b.WriteString(e.String())
		b.WriteByte('\n')
		return true
	})
	return b.String()
}

// FuzzBindStatement drives Bind with arbitrary statement text: for whatever
// parses and gets its ordinals assigned, binding generated arguments leaves no
// parameter behind, leaves the source statement as it was (a cached plan is
// shared by concurrent executions), and hands a statement without
// placeholders back as the same pointer.
func FuzzBindStatement(f *testing.F) {
	for _, seed := range []string{
		"SELECT a FROM t WHERE x = ? AND y = @low AND z BETWEEN @low AND ?",
		"SELECT '?' FROM t WHERE x = ? AND y = 'a@b'",
		"SELECT a FROM t WHERE x = @v OR y = @V OR z = @other",
		"SELECT a FROM t WHERE id = ? AND name LIKE ? AND age BETWEEN ? AND ?",
		"SELECT a FROM T JOIN U ON T.id = U.id WHERE x IN (SELECT y FROM V)",
		"SELECT a FROM t JOIN u ON t.id = u.id AND u.k = ? WHERE EXISTS (SELECT 1 FROM v WHERE v.z = ?)",
		"SELECT (SELECT MAX(b) FROM u WHERE c = ?) AS m, IIF(a > ?, 1, 0) FROM t ORDER BY -a",
		"SELECT * FROM a LEFT JOIN b ON a.x = b.y INNER JOIN c ON c.z = a.x, d",
		"SELECT Gender, COUNT(*) FROM c WHERE Age > 30 AND Gender <> 'M' GROUP BY Gender HAVING COUNT(*) >= ? ORDER BY 2 DESC",
		"SELECT DISTINCT TOP 3 a FROM t WHERE NOT a = 1 AND b IS NOT NULL AND c NOT IN (1, ?)",
		"INSERT INTO t (a, b) VALUES (1, 'x'), (?, 'y')",
		"INSERT INTO t SELECT * FROM u WHERE v = ?",
		"UPDATE t SET a = 1, b = b + ? WHERE c IS NULL",
		"DELETE FROM t WHERE a = ? OR a IN (SELECT b FROM u)",
		"CREATE TABLE Customers ([Customer ID] LONG, Gender TEXT, Age DOUBLE, Active BOOL)",
		"DROP TABLE t",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, q string) {
		st, err := Parse(q)
		if err != nil || st == nil {
			return
		}
		slots, err := AssignParams(st)
		if err != nil {
			return
		}
		args := make([]rowset.Value, len(slots))
		for i := range args {
			args[i] = fmt.Sprintf("arg%d", i)
		}
		before := renderStatement(st)
		bound, err := Bind(st, args)
		if err != nil {
			t.Fatalf("Bind(%q): %v", q, err)
		}
		if n := len(CollectParams(bound)); n != 0 {
			t.Fatalf("bound %q still has %d params", q, n)
		}
		if after := renderStatement(st); after != before {
			t.Fatalf("Bind changed its source %q:\n%s\nwas:\n%s", q, after, before)
		}
		if len(CollectParams(st)) == 0 && bound != st {
			t.Fatalf("Bind copied %q, which has no placeholder", q)
		}
	})
}
