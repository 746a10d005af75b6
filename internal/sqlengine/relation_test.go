package sqlengine

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/rowset"
	"repro/internal/storage"
)

// testFrame is the frame value the test relation binds to a row: the row's id,
// a value only the frame knows, and which clauses read it.
type testFrame struct {
	id, m              int64
	where, item, order atomic.Int32
}

// testRelation is n rows (id LONG, g TEXT) under the alias t, plus a column m
// that exists only in the frame: the resolver compiles references to it — and
// calls of MOF(clause) — to reads of Env.Ext, the way the DMX provider serves
// model columns and prediction functions.
type testRelation struct {
	Relation
	frames []*testFrame // by id; set by the binder
	binds  atomic.Int64
}

func newTestRelation(n int) *testRelation {
	tr := &testRelation{frames: make([]*testFrame, n)}
	rows := make([]rowset.Row, n)
	for i := range rows {
		rows[i] = rowset.Row{int64(i), string(rune('a' + i%5))}
	}
	read := func(clause func(*testFrame) *atomic.Int32) Compiled {
		return func(env *Env) (rowset.Value, error) {
			f := env.Ext.(*testFrame)
			clause(f).Add(1)
			return f.m, nil
		}
	}
	tr.Relation = Relation{
		Schema: rowset.MustSchema(
			rowset.Column{Name: "t.id", Type: rowset.TypeLong},
			rowset.Column{Name: "t.g", Type: rowset.TypeText},
		),
		Rows: rows,
		Resolve: func(e Expr) Compiled {
			f, ok := e.(*FuncCall)
			if !ok || f.Name != "MOF" {
				return nil
			}
			switch f.Args[0].(*Literal).Val {
			case "where":
				return read(func(f *testFrame) *atomic.Int32 { return &f.where })
			case "item":
				return read(func(f *testFrame) *atomic.Int32 { return &f.item })
			}
			return read(func(f *testFrame) *atomic.Int32 { return &f.order })
		},
		Bind: func(bool) func([]rowset.Row, []any) (int, error) {
			return perRow(func(r rowset.Row) (any, error) {
				tr.binds.Add(1)
				id := r[0].(int64)
				f := &testFrame{id: id, m: id % 7}
				if tr.frames[id] != nil {
					return nil, fmt.Errorf("row %d bound twice", id)
				}
				tr.frames[id] = f
				return f, nil
			})
		},
		Kind: "bind", Label: obs.Label{Text: "test"},
	}
	return tr
}

// perRow makes a batch binder of a one-row one: it binds the batch's rows in
// order and stops at the first that fails.
func perRow(bind func(rowset.Row) (any, error)) func([]rowset.Row, []any) (int, error) {
	return func(rows []rowset.Row, ext []any) (int, error) {
		for i, r := range rows {
			v, err := bind(r)
			if err != nil {
				return i, err
			}
			ext[i] = v
		}
		return len(rows), nil
	}
}

func mustSelect(t *testing.T, q string) *SelectStmt {
	t.Helper()
	stmt, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	return stmt.(*SelectStmt)
}

// TestRelationBindsEachRowOnce: a row's frame is bound once, before the
// filter, and WHERE, the select items and the ORDER BY keys of that row all
// read that one value; rows the filter drops are never projected. Over one
// partition and many, on one worker and four, with the same bytes out.
func TestRelationBindsEachRowOnce(t *testing.T) {
	const n = 3000
	sel := mustSelect(t, `SELECT t.id, MOF('item') AS m FROM ignored
		WHERE MOF('where') > 2 AND t.g <> 'c' ORDER BY MOF('order') DESC, t.id`)
	var want []byte
	for _, cfg := range []struct{ workers, partRows int }{{1, storage.DefaultMorselSize}, {1, 256}, {4, 256}} {
		tr := newTestRelation(n)
		e := NewEngine(storage.NewDatabase())
		e.Workers = cfg.workers
		rs, err := e.query(context.Background(), sel, &tr.Relation, cfg.partRows)
		if err != nil {
			t.Fatalf("workers=%d partRows=%d: %v", cfg.workers, cfg.partRows, err)
		}
		if got := tr.binds.Load(); got != n {
			t.Errorf("workers=%d partRows=%d: %d binds for %d rows", cfg.workers, cfg.partRows, got, n)
		}
		kept := 0
		for id, f := range tr.frames {
			keep := f.m > 2 && id%5 != 2
			if keep {
				kept++
			}
			wantReads := int32(0)
			if keep {
				wantReads = 1
			}
			if f.where.Load() != 1 || f.item.Load() != wantReads || f.order.Load() != wantReads {
				t.Fatalf("workers=%d partRows=%d: row %d (kept=%v) read by where/item/order %d/%d/%d times",
					cfg.workers, cfg.partRows, id, keep, f.where.Load(), f.item.Load(), f.order.Load())
			}
		}
		if rs.Len() != kept {
			t.Errorf("workers=%d partRows=%d: %d rows, want %d", cfg.workers, cfg.partRows, rs.Len(), kept)
		}
		for i := 1; i < rs.Len(); i++ {
			a, b := rs.Row(i-1), rs.Row(i)
			if a[1].(int64) < b[1].(int64) || a[1] == b[1] && a[0].(int64) > b[0].(int64) {
				t.Fatalf("rows %d, %d out of order: %v %v", i-1, i, a, b)
			}
		}
		var buf bytes.Buffer
		if err := rs.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = buf.Bytes()
		} else if !bytes.Equal(want, buf.Bytes()) {
			t.Errorf("workers=%d partRows=%d: result differs from the one-partition result", cfg.workers, cfg.partRows)
		}
	}
}

// TestRelationTopStopsEarly: TOP n without ORDER BY over a relation is one
// streaming partition at every worker count, so the binder sees at most one
// batch of a 20k-row relation — and TOP 0 none of it.
func TestRelationTopStopsEarly(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for q, maxBinds := range map[string]int64{
			"SELECT TOP 5 t.id, MOF('item') FROM r":                         rowset.DefaultBatchSize,
			"SELECT TOP 5 t.id FROM r WHERE MOF('where') = 6 AND t.g = 'a'": rowset.DefaultBatchSize,
			"SELECT TOP 0 t.id, MOF('item') FROM r":                         0,
		} {
			tr := newTestRelation(20000)
			e := NewEngine(storage.NewDatabase())
			e.Workers = workers
			sel := mustSelect(t, q)
			rs, err := e.QueryRelation(context.Background(), sel, tr.Relation)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, q, err)
			}
			if rs.Len() != *sel.Top {
				t.Errorf("workers=%d %s: %d rows", workers, q, rs.Len())
			}
			if got := tr.binds.Load(); got > maxBinds {
				t.Errorf("workers=%d %s: %d rows bound, want at most %d", workers, q, got, maxBinds)
			}
		}
	}
}

// TestRelationUntypedColumns: a computed column no row gave a value is declared
// as the relation asks; a SELECT declares it NULL.
func TestRelationUntypedColumns(t *testing.T) {
	tr := newTestRelation(10)
	tr.Untyped = rowset.TypeText
	e := NewEngine(storage.NewDatabase())
	rs, err := e.QueryRelation(context.Background(), mustSelect(t, "SELECT t.id, NULL AS nothing FROM r"), tr.Relation)
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.Schema().Column(1).Type; got != rowset.TypeText {
		t.Errorf("relation: all-NULL column typed %s, want TEXT", got)
	}
	rs, err = e.Exec("SELECT NULL AS nothing")
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.Schema().Column(0).Type; got != rowset.TypeNull {
		t.Errorf("SELECT: all-NULL column typed %s, want NULL", got)
	}
}

// TestErrorsSurfaceInRowOrder: operators run a batch at a time, but a
// statement fails on the first row — front to back — that any of them fails
// on, and a TOP that has its rows before that row never sees the error.
func TestErrorsSurfaceInRowOrder(t *testing.T) {
	e := bigTable(t, 200)
	for _, workers := range []int{1, 4} {
		e.Workers = workers
		// The item fails on row 5, the filter on row 10 of the same batch.
		_, err := e.Exec("SELECT a, (a <> 5 OR item_fails) FROM T WHERE (a <> 10 OR where_fails)")
		if err == nil || !strings.Contains(err.Error(), "item_fails") {
			t.Errorf("workers=%d: err = %v, want the item's error on row 5", workers, err)
		}
		_, err = e.Exec("SELECT a FROM T WHERE (a <> 10 OR where_fails) ORDER BY (a <> 5 OR key_fails), a")
		if err == nil || !strings.Contains(err.Error(), "key_fails") {
			t.Errorf("workers=%d: err = %v, want the ORDER BY key's error on row 5", workers, err)
		}
		for _, q := range []string{
			"SELECT TOP 3 a FROM T WHERE (a <> 7 OR where_fails)",
			"SELECT TOP 3 a, (a <> 7 OR item_fails) FROM T",
		} {
			rs, err := e.Exec(q)
			if err != nil || rs.Len() != 3 {
				t.Errorf("workers=%d %s: %v rows, err %v; want the 3 rows before the failing one", workers, q, rs, err)
			}
		}
	}
	// The same holds for a relation's binder.
	tr := newTestRelation(200)
	bind := tr.Bind
	tr.Bind = func(reuse bool) func([]rowset.Row, []any) (int, error) {
		inner := bind(reuse)
		return func(rows []rowset.Row, ext []any) (int, error) {
			for i, r := range rows {
				if r[0].(int64) == 10 {
					if n, err := inner(rows[:i], ext[:i]); err != nil {
						return n, err
					}
					return i, fmt.Errorf("bind_fails")
				}
			}
			return inner(rows, ext)
		}
	}
	_, err := e.QueryRelation(context.Background(), mustSelect(t, "SELECT (t.id <> 5 OR item_fails) FROM r"), tr.Relation)
	if err == nil || !strings.Contains(err.Error(), "item_fails") {
		t.Errorf("relation: err = %v, want the item's error on row 5", err)
	}
}

// TestRelationAggregates: GROUP BY, HAVING and the aggregates run over a
// relation as over a table — group keys and aggregate arguments read the
// row's frame, a group's representative is its first row with that row's
// frame — and the result is the one counted by hand, over one partition and
// over 16-row partitions, on one worker and four.
func TestRelationAggregates(t *testing.T) {
	const n = 3000
	byG := mustSelect(t, `SELECT t.g, COUNT(*) AS n, SUM(MOF('item')) AS s, MIN(t.id) AS lo, MOF('order') AS first
		FROM r GROUP BY t.g HAVING MIN(t.id) > 0 ORDER BY t.g DESC`)
	byM := mustSelect(t, `SELECT MOF('where') AS m, COUNT(*) AS n FROM r GROUP BY MOF('where') ORDER BY m`)
	type group struct{ n, s, lo, first int64 }
	gs := map[string]*group{}
	mCount := make([]int64, 7)
	for id := int64(0); id < n; id++ {
		g, m := string(rune('a'+id%5)), id%7
		if gs[g] == nil {
			gs[g] = &group{lo: id, first: m}
		}
		gs[g].n++
		gs[g].s += m
		mCount[m]++
	}
	var wantG, wantM []rowset.Row
	for _, g := range []string{"e", "d", "c", "b"} { // HAVING drops "a", whose MIN(t.id) is 0
		wantG = append(wantG, rowset.Row{g, gs[g].n, gs[g].s, gs[g].lo, gs[g].first})
	}
	for m, c := range mCount {
		wantM = append(wantM, rowset.Row{int64(m), c})
	}
	for _, cfg := range []struct{ workers, partRows int }{{1, storage.DefaultMorselSize}, {1, 16}, {4, 16}} {
		for _, q := range []struct {
			sel  *SelectStmt
			want []rowset.Row
		}{{byG, wantG}, {byM, wantM}} {
			tr := newTestRelation(n)
			e := NewEngine(storage.NewDatabase())
			e.Workers = cfg.workers
			rs, err := e.query(context.Background(), q.sel, &tr.Relation, cfg.partRows)
			if err != nil {
				t.Fatalf("workers=%d partRows=%d: %v", cfg.workers, cfg.partRows, err)
			}
			if got := tr.binds.Load(); got != n {
				t.Errorf("workers=%d partRows=%d: %d binds for %d rows", cfg.workers, cfg.partRows, got, n)
			}
			if fmt.Sprint(rs.Rows()) != fmt.Sprint(q.want) {
				t.Errorf("workers=%d partRows=%d:\n got %v\nwant %v", cfg.workers, cfg.partRows, rs.Rows(), q.want)
			}
		}
	}
	// Over no rows, the one group has no frame: what the relation serves is
	// NULL like the rest of its representative row.
	rs, err := NewEngine(storage.NewDatabase()).QueryRelation(context.Background(),
		mustSelect(t, "SELECT COUNT(*), MOF('item') FROM r"), newTestRelation(0).Relation)
	if err != nil || fmt.Sprint(rs.Rows()) != "[[0 <nil>]]" {
		t.Errorf("empty relation: %v, %v; want one row [0 NULL]", rs, err)
	}
}
