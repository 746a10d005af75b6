package sqlengine

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/rowset"
	"repro/internal/storage"
)

// predGen builds random, fully parenthesized WHERE text from every expression
// node kind: column-versus-literal comparisons and their AND/OR/NOT
// combinations (all the old predicate compiler admitted), and around them
// arithmetic, ||, LIKE, scalar functions, IN lists with NULLs, BETWEEN over
// expressions, IIF/COALESCE and — rarely — operands that fail on some rows.
// Columns: id LONG (unique, never NULL), a LONG, b DOUBLE, s TEXT, u TEXT,
// k BOOL.
type predGen struct{ rng *rand.Rand }

func (g *predGen) pick(opts ...string) string { return opts[g.rng.Intn(len(opts))] }

func (g *predGen) num(d int) string {
	if d <= 0 || g.rng.Intn(3) == 0 {
		return g.pick("a", "b", "a", "b", "0", "2", "7", "1.5", "-3", "NULL")
	}
	switch g.rng.Intn(8) {
	case 0, 1:
		return fmt.Sprintf("(%s %s %s)", g.num(d-1), g.pick("+", "-", "*", "/"), g.num(d-1))
	case 2:
		return "(-" + g.num(d-1) + ")"
	case 3:
		return "LEN(" + g.text(d-1) + ")"
	case 4:
		return g.pick("ABS", "FLOOR", "CEILING", "ROUND") + "(" + g.num(d-1) + ")"
	case 5:
		return "ROUND(" + g.num(d-1) + ", 1)"
	case 6:
		return "COALESCE(" + g.num(d-1) + ", " + g.num(d-1) + ")"
	}
	return "IIF(" + g.boolean(d-1) + ", " + g.num(d-1) + ", " + g.num(d-1) + ")"
}

func (g *predGen) text(d int) string {
	if d <= 0 || g.rng.Intn(3) == 0 {
		return g.pick("s", "u", "s", "u", "'ab'", "'Été'", "''", "'a%'", "NULL")
	}
	switch g.rng.Intn(5) {
	case 0:
		return "(" + g.text(d-1) + " || " + g.pick(g.text(d-1), g.num(d-1)) + ")"
	case 1:
		return g.pick("UPPER", "LOWER", "TRIM") + "(" + g.text(d-1) + ")"
	case 2:
		return fmt.Sprintf("SUBSTRING(%s, %d, %d)", g.text(d-1), g.rng.Intn(4), g.rng.Intn(4))
	case 3:
		return "COALESCE(" + g.text(d-1) + ", " + g.text(d-1) + ")"
	}
	return "IIF(" + g.boolean(d-1) + ", " + g.text(d-1) + ", " + g.text(d-1) + ")"
}

func (g *predGen) list(item func(int) string, d int) string {
	items := make([]string, 1+g.rng.Intn(4))
	for i := range items {
		if items[i] = item(d); g.rng.Intn(5) == 0 {
			items[i] = "NULL"
		}
	}
	return strings.Join(items, ", ")
}

func (g *predGen) boolean(d int) string {
	cmp := func() string { return g.pick("=", "<>", "<", "<=", ">", ">=") }
	if d <= 0 || g.rng.Intn(4) == 0 {
		switch g.rng.Intn(6) {
		case 0:
			return fmt.Sprintf("(a %s %d)", cmp(), g.rng.Intn(10))
		case 1:
			return fmt.Sprintf("(%g %s b)", float64(g.rng.Intn(40))/4, cmp())
		case 2:
			return "(s " + cmp() + " " + g.pick("'ab'", "'Ab'", "'zz'", "NULL") + ")"
		case 3:
			return "(" + g.pick("a", "b", "s", "k") + " IS " + g.pick("", "NOT ") + "NULL)"
		case 4:
			return fmt.Sprintf("(a %sIN (1, %d, %s))", g.pick("", "NOT "), g.rng.Intn(10), g.pick("5", "NULL"))
		}
		return "k"
	}
	switch g.rng.Intn(12) {
	case 0, 1:
		return "(" + g.boolean(d-1) + " " + g.pick("AND", "OR") + " " + g.boolean(d-1) + ")"
	case 2:
		return "(NOT " + g.boolean(d-1) + ")"
	case 3:
		return "(" + g.num(d-1) + " " + cmp() + " " + g.num(d-1) + ")"
	case 4:
		return "(" + g.text(d-1) + " " + cmp() + " " + g.text(d-1) + ")"
	case 5:
		pattern := g.pick("'a%'", "'%b'", "'_b%'", "'%é%'", "'%'", "'A_'", "'%a%b%'", g.text(d-1))
		return "(" + g.text(d-1) + " " + g.pick("", "NOT ") + "LIKE " + pattern + ")"
	case 6:
		return "(" + g.num(d-1) + " " + g.pick("", "NOT ") + "IN (" + g.list(g.num, d-1) + "))"
	case 7:
		return "(" + g.text(d-1) + " IN (" + g.list(g.text, d-1) + "))"
	case 8:
		return "(" + g.num(d-1) + " " + g.pick("", "NOT ") + "BETWEEN " + g.num(d-1) + " AND " + g.num(d-1) + ")"
	case 9:
		return "(" + g.boolean(d-1) + " IS " + g.pick("", "NOT ") + "NULL)"
	case 10:
		return "IIF(" + g.boolean(d-1) + ", " + g.boolean(d-1) + ", " + g.boolean(d-1) + ")"
	}
	// An operand that fails on the rows that reach it: which rows do depends
	// on the NULLs and short-circuits around it.
	return g.pick("((s + 1) > 0)", "(a LIKE 'x')", "(LEN(a) > 1)", "(NOSUCHFUNC(a) = 1)",
		"(nope = 1)", "(NOT a)", "((a > 1) AND b)", "(LEN(s, u) = 1)", "(COUNT(a) > 1)")
}

// metamorphicTable is NULL-dense and larger than one default partition.
func metamorphicTable(t *testing.T, n int) *Engine {
	t.Helper()
	e := NewEngine(storage.NewDatabase())
	if _, err := e.Exec("CREATE TABLE T (id LONG, a LONG, b DOUBLE, s TEXT, u TEXT, k BOOL)"); err != nil {
		t.Fatal(err)
	}
	tbl, err := e.DB.Table("T")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	texts := []string{"ab", "Ab", "b", "abab", "a%", "_b", "été", "ÉTÉ", "", " ab "}
	orNull := func(v rowset.Value) rowset.Value {
		if rng.Intn(10) < 3 {
			return nil
		}
		return v
	}
	for i := 0; i < n; i++ {
		r := rowset.Row{
			int64(i),
			orNull(int64(rng.Intn(16) - 3)),
			orNull(float64(rng.Intn(40)) / 4),
			orNull(texts[rng.Intn(len(texts))]),
			orNull(texts[rng.Intn(len(texts))]),
			orNull(rng.Intn(2) == 0),
		}
		if err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// withoutColumnA is table T as an embedder's relation that keeps column a out
// of the rows and in the frame: the binder looks a row's a up, and the resolver
// compiles every reference to a into a read of the frame. A predicate then
// means over the relation what it means over the table, with every use of a
// going through the bind operator, the frames and the resolver.
func withoutColumnA(t *testing.T, e *Engine) *Relation {
	t.Helper()
	tbl, err := e.DB.Table("T")
	if err != nil {
		t.Fatal(err)
	}
	var cols []rowset.Column
	for i, c := range tbl.Schema().Columns {
		if i != 1 {
			cols = append(cols, rowset.Column{Name: "T." + c.Name, Type: c.Type})
		}
	}
	var rows []rowset.Row
	aOf := make(map[int64]rowset.Value)
	for _, r := range tbl.Snapshot() {
		aOf[r[0].(int64)] = r[1]
		rows = append(rows, append(rowset.Row{r[0]}, r[2:]...))
	}
	return &Relation{
		Schema: rowset.MustSchema(cols...),
		Rows:   rows,
		Resolve: func(x Expr) Compiled {
			if cr, ok := x.(*ColumnRef); ok && strings.EqualFold(cr.Name, "a") {
				return func(env *Env) (rowset.Value, error) { return env.Ext, nil }
			}
			return nil
		},
		Bind: func(bool) func([]rowset.Row, []any) (int, error) {
			return perRow(func(r rowset.Row) (any, error) { return aOf[r[0].(int64)], nil })
		},
		Kind: "bind",
	}
}

// TestMetamorphicPredicates checks ternary partitioning: for any predicate p,
// the rows passing p, NOT p and (p) IS NULL are disjoint and together are the
// table — whatever p is made of, at any worker count and partition size, over
// the table and over the same rows as an embedder's relation. A
// predicate that fails must fail with the same error in all three arms (the
// arms evaluate p on the same rows in the same order) and in every
// configuration (the lowest failing partition wins).
func TestMetamorphicPredicates(t *testing.T) {
	const rows = 5000 // > storage.DefaultMorselSize: two partitions by default
	predicates := 120
	if testing.Short() {
		predicates = 30
	}
	e := metamorphicTable(t, rows)
	g := &predGen{rng: rand.New(rand.NewSource(20260926))}
	configs := []struct {
		workers, partRows int
		rel               *Relation // non-nil: run over this relation, not FROM T
	}{
		{1, storage.DefaultMorselSize, nil},
		{4, storage.DefaultMorselSize, nil},
		{4, smallPartRows, nil},
		{4, storage.DefaultMorselSize, withoutColumnA(t, e)},
		{4, smallPartRows, withoutColumnA(t, e)},
	}
	ids := func(q string, workers, partRows int, rel *Relation) ([]int64, error) {
		e.Workers = workers
		var rs *rowset.Rowset
		var err error
		if rel == nil {
			rs, err = queryAt(context.Background(), e, q, partRows)
		} else {
			rs, err = e.query(context.Background(), mustSelect(t, q), rel, partRows)
		}
		if err != nil {
			return nil, err
		}
		out := make([]int64, rs.Len())
		for i, r := range rs.Rows() {
			out[i] = r[0].(int64)
		}
		return out, nil
	}
	var failed, passed, inTrue, inFalse, inNull int
	for i := 0; i < predicates; i++ {
		p := g.boolean(4)
		arms := []string{
			"SELECT id FROM T WHERE " + p,
			"SELECT id FROM T WHERE NOT " + p,
			"SELECT id FROM T WHERE " + p + " IS NULL",
		}
		var wantErr string
		var want [3][]int64
		for ci, cfg := range configs {
			seen := make([]int, rows)
			total := 0
			var errs [3]string
			for ai, q := range arms {
				got, err := ids(q, cfg.workers, cfg.partRows, cfg.rel)
				if err != nil {
					errs[ai] = err.Error()
					continue
				}
				for _, id := range got {
					seen[id]++
				}
				total += len(got)
				if ci == 0 {
					want[ai] = got
				} else if fmt.Sprint(got) != fmt.Sprint(want[ai]) {
					t.Fatalf("%s: workers=%d partRows=%d returns different rows than workers=1", q, cfg.workers, cfg.partRows)
				}
			}
			if errs[0] != errs[1] || errs[0] != errs[2] {
				t.Fatalf("predicate %s: arms disagree on failure at workers=%d partRows=%d:\n  p:         %q\n  NOT p:     %q\n  p IS NULL: %q",
					p, cfg.workers, cfg.partRows, errs[0], errs[1], errs[2])
			}
			if ci == 0 {
				wantErr = errs[0]
			} else if errs[0] != wantErr {
				t.Fatalf("predicate %s: workers=%d partRows=%d fails with %q, workers=1 with %q", p, cfg.workers, cfg.partRows, errs[0], wantErr)
			}
			if wantErr != "" {
				continue
			}
			if total != rows {
				t.Fatalf("predicate %s: arms return %d rows in total at workers=%d partRows=%d, table has %d", p, total, cfg.workers, cfg.partRows, rows)
			}
			for id, n := range seen {
				if n != 1 {
					t.Fatalf("predicate %s: row %d is in %d arms", p, id, n)
				}
			}
		}
		if wantErr != "" {
			failed++
			continue
		}
		passed++
		inTrue, inFalse, inNull = inTrue+len(want[0]), inFalse+len(want[1]), inNull+len(want[2])
	}
	t.Logf("%d predicates failed, %d passed; rows TRUE %d FALSE %d NULL %d", failed, passed, inTrue, inFalse, inNull)
	// The generator must have exercised all of it.
	if failed == 0 || passed < predicates/2 {
		t.Errorf("%d predicates failed and %d passed; want some failures and mostly passes", failed, passed)
	}
	if inTrue == 0 || inFalse == 0 || inNull == 0 {
		t.Errorf("arms over all predicates: %d TRUE, %d FALSE, %d NULL rows; want all three populated", inTrue, inFalse, inNull)
	}
}
