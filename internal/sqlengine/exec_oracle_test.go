package sqlengine

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/rowset"
	"repro/internal/storage"
)

// This file is the differential harness's reference executor: a test-only
// copy of the executor as it existed before the Volcano rewrite — every
// operator builds a complete Rowset, scans never consult indexes, nothing is
// partitioned — used as the oracle for the engine's pipeline. It shares only
// leaf helpers with the engine (Eval, name and schema inference); scan, join,
// filter, project, sort, distinct, TOP and aggregation — grouping that keeps
// every input row, the two-pass computeAggregate the engine used before its
// aggregate states became mergeable, and the substituteAggs tree rewrite it
// used before aggregate call sites compiled to slots — are its own, and rows
// and groups are told apart value by value (sameValues), never through a
// composite key.

func oracleQuery(e *Engine, sel *SelectStmt) (*rowset.Rowset, error) {
	src, err := oracleSource(e, sel.From)
	if err != nil {
		return nil, err
	}
	if sel.Where != nil {
		src, err = oracleFilter(src, sel.Where)
		if err != nil {
			return nil, err
		}
	}
	var out *rowset.Rowset
	if needsAggregate(sel) {
		out, err = oracleAggregate(sel, src)
	} else {
		out, err = oracleProject(sel, src)
	}
	if err != nil {
		return nil, err
	}
	if sel.Distinct {
		out = oracleDistinct(out)
	}
	if sel.Top != nil && out.Len() > *sel.Top {
		trimmed := rowset.New(out.Schema())
		for i := 0; i < *sel.Top; i++ {
			if err := trimmed.Append(out.Row(i)); err != nil {
				return nil, err
			}
		}
		out = trimmed
	}
	return out, nil
}

func oracleSource(e *Engine, from []TableRef) (*rowset.Rowset, error) {
	if len(from) == 0 {
		rs := rowset.New(rowset.MustSchema())
		if err := rs.AppendVals(); err != nil {
			return nil, err
		}
		return rs, nil
	}
	acc, err := oracleScan(e, from[0])
	if err != nil {
		return nil, err
	}
	for _, ref := range from[1:] {
		right, err := oracleScan(e, ref)
		if err != nil {
			return nil, err
		}
		acc, err = oracleJoin(acc, right, ref.Kind, ref.On)
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}

func oracleScan(e *Engine, ref TableRef) (*rowset.Rowset, error) {
	var scan *rowset.Rowset
	if view, ok := e.views.get(ref.Name); ok {
		vr, err := e.QueryContext(context.Background(), view)
		if err != nil {
			return nil, fmt.Errorf("sqlengine: view %s: %w", ref.Name, err)
		}
		scan = vr
	} else {
		tbl, err := e.DB.Table(ref.Name)
		if err != nil {
			return nil, err
		}
		scan = tbl.Scan()
	}
	q := ref.AliasOrName()
	cols := make([]rowset.Column, scan.Schema().Len())
	for i, c := range scan.Schema().Columns {
		cols[i] = rowset.Column{Name: q + "." + c.Name, Type: c.Type, Nested: c.Nested}
	}
	schema, err := rowset.NewSchema(cols...)
	if err != nil {
		return nil, fmt.Errorf("sqlengine: %w (duplicate alias %q?)", err, q)
	}
	return rowset.FromRows(schema, scan.Rows())
}

// oracleJoin always builds the hash table on the right input, as the
// materialized executor did.
func oracleJoin(left, right *rowset.Rowset, kind JoinKind, on Expr) (*rowset.Rowset, error) {
	schema, err := concatSchemas(left.Schema(), right.Schema())
	if err != nil {
		return nil, err
	}
	out := rowset.New(schema)
	appendJoined := func(l, r rowset.Row) error {
		row := make(rowset.Row, 0, len(l)+len(r))
		row = append(row, l...)
		row = append(row, r...)
		return out.Append(row)
	}
	nullRight := make(rowset.Row, right.Schema().Len())

	if kind == JoinCross {
		for _, l := range left.Rows() {
			for _, r := range right.Rows() {
				if err := appendJoined(l, r); err != nil {
					return nil, err
				}
			}
		}
		return out, nil
	}

	if lo, ro, ok := equiJoinOrdinals(on, left.Schema(), right.Schema()); ok {
		ht := make(map[string][]rowset.Row, right.Len())
		for _, r := range right.Rows() {
			if r[ro] == nil {
				continue // NULL never matches in an equi-join
			}
			ht[rowset.Key(r[ro])] = append(ht[rowset.Key(r[ro])], r)
		}
		for _, l := range left.Rows() {
			var matches []rowset.Row
			if l[lo] != nil {
				matches = ht[rowset.Key(l[lo])]
			}
			if len(matches) == 0 {
				if kind == JoinLeft {
					if err := appendJoined(l, nullRight); err != nil {
						return nil, err
					}
				}
				continue
			}
			for _, r := range matches {
				if err := appendJoined(l, r); err != nil {
					return nil, err
				}
			}
		}
		return out, nil
	}

	probe := make(rowset.Row, 0, schema.Len())
	for _, l := range left.Rows() {
		matched := false
		for _, r := range right.Rows() {
			probe = probe[:0]
			probe = append(probe, l...)
			probe = append(probe, r...)
			v, err := Eval(on, schema, probe)
			if err != nil {
				return nil, err
			}
			ok, err := Truthy(v)
			if err != nil {
				return nil, err
			}
			if ok {
				matched = true
				if err := appendJoined(l, r); err != nil {
					return nil, err
				}
			}
		}
		if !matched && kind == JoinLeft {
			if err := appendJoined(l, nullRight); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func oracleFilter(src *rowset.Rowset, cond Expr) (*rowset.Rowset, error) {
	out := rowset.New(src.Schema())
	for _, r := range src.Rows() {
		v, err := Eval(cond, src.Schema(), r)
		if err != nil {
			return nil, err
		}
		ok, err := Truthy(v)
		if err != nil {
			return nil, err
		}
		if ok {
			if err := out.Append(r); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func oracleProject(sel *SelectStmt, src *rowset.Rowset) (*rowset.Rowset, error) {
	items, err := expandStars(sel.Items, src.Schema())
	if err != nil {
		return nil, err
	}
	names := outputNames(items)
	outRows := make([]rowset.Row, 0, src.Len())
	keyRows := make([]rowset.Row, 0, src.Len())
	for _, r := range src.Rows() {
		out := make(rowset.Row, len(items))
		for i, it := range items {
			v, err := Eval(it.Expr, src.Schema(), r)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		keys, err := oracleOrderKeys(sel.OrderBy, names, out, src.Schema(), r)
		if err != nil {
			return nil, err
		}
		outRows = append(outRows, out)
		keyRows = append(keyRows, keys)
	}
	oracleSort(outRows, keyRows, sel.OrderBy)
	schema, err := outputSchema(items, names, src.Schema(), outRows, rowset.TypeNull)
	if err != nil {
		return nil, err
	}
	return rowset.FromRows(schema, outRows)
}

// oracleAggregate groups by materializing every group's rows, computes each
// aggregate call site over them with computeAggregate, and applies HAVING,
// projection and ORDER BY per group.
func oracleAggregate(sel *SelectStmt, src *rowset.Rowset) (*rowset.Rowset, error) {
	var aggs []*FuncCall
	add := func(f *FuncCall) { aggs = append(aggs, f) }
	for _, it := range sel.Items {
		if it.Star {
			return nil, fmt.Errorf("sqlengine: SELECT * cannot be combined with aggregation")
		}
		aggregatesIn(it.Expr, add)
	}
	aggregatesIn(sel.Having, add)
	for _, o := range sel.OrderBy {
		aggregatesIn(o.Expr, add)
	}
	type group struct {
		key  []rowset.Value
		rows []rowset.Row
	}
	var groups []*group
	for _, r := range src.Rows() {
		key := make([]rowset.Value, len(sel.GroupBy))
		for i, g := range sel.GroupBy {
			v, err := Eval(g, src.Schema(), r)
			if err != nil {
				return nil, err
			}
			key[i] = v
		}
		var grp *group
		for _, g := range groups {
			if sameValues(g.key, key) {
				grp = g
				break
			}
		}
		if grp == nil {
			grp = &group{key: key}
			groups = append(groups, grp)
		}
		grp.rows = append(grp.rows, r)
	}
	// Aggregation without GROUP BY over empty input still yields one group.
	if len(sel.GroupBy) == 0 && len(groups) == 0 {
		groups = append(groups, &group{})
	}
	names := outputNames(sel.Items)
	var outRows, keyRows []rowset.Row
	for _, grp := range groups {
		rows := grp.rows
		vals := make(map[*FuncCall]rowset.Value, len(aggs))
		for _, f := range aggs {
			v, err := computeAggregate(f, rows, src.Schema())
			if err != nil {
				return nil, err
			}
			vals[f] = v
		}
		first := make(rowset.Row, src.Schema().Len())
		if len(rows) > 0 {
			first = rows[0]
		}
		if sel.Having != nil {
			hv, err := Eval(substituteAggs(sel.Having, vals), src.Schema(), first)
			if err != nil {
				return nil, err
			}
			ok, err := Truthy(hv)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		out := make(rowset.Row, len(sel.Items))
		for i, it := range sel.Items {
			v, err := Eval(substituteAggs(it.Expr, vals), src.Schema(), first)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		order := make([]OrderItem, len(sel.OrderBy))
		for i, o := range sel.OrderBy {
			order[i] = OrderItem{Expr: substituteAggs(o.Expr, vals), Desc: o.Desc}
		}
		keys, err := oracleOrderKeys(order, names, out, src.Schema(), first)
		if err != nil {
			return nil, err
		}
		outRows = append(outRows, out)
		keyRows = append(keyRows, keys)
	}
	oracleSort(outRows, keyRows, sel.OrderBy)
	schema, err := outputSchema(sel.Items, names, src.Schema(), outRows, rowset.TypeNull)
	if err != nil {
		return nil, err
	}
	return rowset.FromRows(schema, outRows)
}

// substituteAggs returns a copy of e with aggregate calls replaced by their
// computed values — the per-group tree rewrite the engine did before aggregate
// call sites compiled to slots. Non-aggregate subtrees are shared, not copied.
func substituteAggs(e Expr, vals map[*FuncCall]rowset.Value) Expr {
	switch x := e.(type) {
	case *FuncCall:
		if v, ok := vals[x]; ok {
			return &Literal{Val: v}
		}
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = substituteAggs(a, vals)
		}
		return &FuncCall{Name: x.Name, Args: args, Star: x.Star, Distinct: x.Distinct, Pos: x.Pos}
	case *Binary:
		return &Binary{Op: x.Op, L: substituteAggs(x.L, vals), R: substituteAggs(x.R, vals)}
	case *Unary:
		return &Unary{Op: x.Op, X: substituteAggs(x.X, vals)}
	case *IsNull:
		return &IsNull{X: substituteAggs(x.X, vals), Negate: x.Negate}
	case *Between:
		return &Between{
			X: substituteAggs(x.X, vals), Lo: substituteAggs(x.Lo, vals),
			Hi: substituteAggs(x.Hi, vals), Negate: x.Negate,
		}
	case *In:
		list := make([]Expr, len(x.List))
		for i, it := range x.List {
			list[i] = substituteAggs(it, vals)
		}
		return &In{X: substituteAggs(x.X, vals), List: list, Negate: x.Negate}
	}
	return e
}

// oracleOrderKeys evaluates ORDER BY expressions for one row: each key
// resolves first against the projected output (aliases), then the source row.
func oracleOrderKeys(order []OrderItem, names []string, out rowset.Row, schema *rowset.Schema, row rowset.Row) (rowset.Row, error) {
	if len(order) == 0 {
		return nil, nil
	}
	keys := make(rowset.Row, len(order))
	for i, o := range order {
		if cr, ok := o.Expr.(*ColumnRef); ok && cr.Qualifier == "" {
			found := false
			for j, n := range names {
				if strings.EqualFold(n, cr.Name) {
					keys[i] = out[j]
					found = true
					break
				}
			}
			if found {
				continue
			}
		}
		v, err := Eval(o.Expr, schema, row)
		if err != nil {
			return nil, err
		}
		keys[i] = v
	}
	return keys, nil
}

// computeAggregate is the engine's pre-partitioning aggregate: one call site
// over one group's retained rows, SUM/AVG folded front to back, STDEV/VAR in
// two passes.
func computeAggregate(f *FuncCall, rows []rowset.Row, schema *rowset.Schema) (rowset.Value, error) {
	if f.Name == "COUNT" && f.Star {
		return int64(len(rows)), nil
	}
	if len(f.Args) != 1 {
		return nil, fmt.Errorf("sqlengine: %s takes exactly one argument", f.Name)
	}
	var vals []rowset.Value
	seen := make(map[string]bool)
	for _, r := range rows {
		v, err := Eval(f.Args[0], schema, r)
		if err != nil {
			return nil, err
		}
		if v == nil {
			continue
		}
		if f.Distinct {
			k := rowset.Key(v)
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		vals = append(vals, v)
	}
	switch f.Name {
	case "COUNT":
		return int64(len(vals)), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return nil, nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c := rowset.Compare(v, best)
			if (f.Name == "MIN" && c < 0) || (f.Name == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	case "SUM", "AVG", "STDEV", "VAR":
		if len(vals) == 0 {
			return nil, nil
		}
		allInt := true
		var sum float64
		var isum int64
		for _, v := range vals {
			fv, ok := rowset.ToFloat(v)
			if !ok {
				return nil, fmt.Errorf("sqlengine: %s requires numeric values, got %s", f.Name, rowset.TypeOf(v))
			}
			sum += fv
			if iv, ok := v.(int64); ok {
				isum += iv
			} else {
				allInt = false
			}
		}
		switch f.Name {
		case "SUM":
			if allInt {
				return isum, nil
			}
			return sum, nil
		case "AVG":
			return sum / float64(len(vals)), nil
		default: // STDEV, VAR: sample statistics
			if len(vals) < 2 {
				return nil, nil
			}
			mean := sum / float64(len(vals))
			var ss float64
			for _, v := range vals {
				fv, _ := rowset.ToFloat(v)
				d := fv - mean
				ss += d * d
			}
			variance := ss / float64(len(vals)-1)
			if f.Name == "VAR" {
				return variance, nil
			}
			return math.Sqrt(variance), nil
		}
	}
	return nil, fmt.Errorf("sqlengine: unknown aggregate %s", f.Name)
}

func oracleSort(rows []rowset.Row, keys []rowset.Row, order []OrderItem) {
	if len(order) == 0 {
		return
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool {
		a, b := idx[x], idx[y]
		for k, o := range order {
			c := rowset.Compare(keys[a][k], keys[b][k])
			if o.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	tmp := make([]rowset.Row, len(rows))
	for i, j := range idx {
		tmp[i] = rows[j]
	}
	copy(rows, tmp)
}

func oracleDistinct(rs *rowset.Rowset) *rowset.Rowset {
	out := rowset.New(rs.Schema())
	for _, r := range rs.Rows() {
		dup := false
		for _, kept := range out.Rows() {
			if sameValues(kept, r) {
				dup = true
				break
			}
		}
		if !dup {
			_ = out.Append(r) //nolint:errcheck // rows came from a valid rowset
		}
	}
	return out
}

// sameValues reports whether two value lists are pairwise the same value, the
// reference's notion of "same row" and "same group": it compares value by
// value instead of building a composite key, so it cannot share an encoding
// bug with the engine.
func sameValues(a, b []rowset.Value) bool {
	for i := range a {
		if rowset.Key(a[i]) != rowset.Key(b[i]) {
			return false
		}
	}
	return true
}

// differentialDB stages tables (two of them indexed), NULLs, and a view so
// the fixtures exercise index pushdown, its refusal cases, and the view path.
func differentialDB(t *testing.T) *Engine {
	t.Helper()
	db := storage.NewDatabase()
	e := NewEngine(db)
	mustOK := func(sql string) {
		t.Helper()
		if _, err := e.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustOK("CREATE TABLE C (id LONG, name TEXT, city TEXT, age LONG, score DOUBLE)")
	mustOK("CREATE TABLE O (oid LONG, cid LONG, amount DOUBLE, item TEXT)")
	cities := []string{"rome", "oslo", "lima", "kiev"}
	items := []string{"pen", "mug", "hat"}
	ct, _ := db.Table("C")
	ot, _ := db.Table("O")
	for i := 0; i < 70; i++ {
		var score rowset.Value = float64(i%13) * 1.5
		if i%9 == 0 {
			score = nil
		}
		var city rowset.Value = cities[i%len(cities)]
		if i%17 == 0 {
			city = nil
		}
		r := rowset.Row{int64(i), fmt.Sprintf("n%02d", i%25), city, int64(18 + i%50), score}
		if err := ct.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 90; i++ {
		var cid rowset.Value = int64(i % 80) // some cids match no customer
		if i%11 == 0 {
			cid = nil
		}
		r := rowset.Row{int64(1000 + i), cid, float64(i) / 3, items[i%len(items)]}
		if err := ot.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := ct.CreateIndex("city"); err != nil {
		t.Fatal(err)
	}
	if err := ot.CreateIndex("cid"); err != nil {
		t.Fatal(err)
	}
	mustOK("CREATE VIEW V AS SELECT id, city, age FROM C WHERE age > 30")
	// x is declared LONG (its first value is) but holds doubles from id 40 on.
	mustOK("CREATE VIEW W AS SELECT id, IIF(id < 40, id, id / 2.0) AS x FROM C")
	// Text that contains what a naive composite key would use as separator and
	// type tag: ('x|sy', 'z') and ('x', 'y|sz') are different rows.
	// x is declared LONG and holds LONGs, then DOUBLEs (some integral), then
	// TEXT: its keys fall back to bytes.
	mustOK("CREATE VIEW X AS SELECT id, IIF(id < 30, id, IIF(id < 50, id / 4.0, name)) AS x FROM C")
	// LONGs beside 2^53 and the DOUBLEs nearest them, ±0 and NULL.
	mustOK("CREATE TABLE B (k LONG, d DOUBLE)")
	bt, _ := db.Table("B")
	for _, r := range []rowset.Row{
		{int64(1<<53 + 1), float64(1 << 53)}, {int64(1 << 53), float64(1<<53 + 2)},
		{int64(-1<<53 - 1), float64(-1 << 53)}, {int64(3), 3.0}, {int64(0), math.Copysign(0, -1)},
		{nil, nil}, {int64(1<<53 + 1), nil}, {int64(7), 0.0}, {int64(-1 << 53), 7.0},
	} {
		if err := bt.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	mustOK("CREATE TABLE P (a TEXT, b TEXT, n LONG)")
	mustOK("INSERT INTO P VALUES ('x|sy', 'z', 1), ('x', 'y|sz', 2), ('x', 'y|sz', 3), ('', '|', 4), ('|', '', 5)")
	return e
}

// differentialFixtures is the query corpus: every operator of the pipeline,
// with and without index pushdown, plus the pushdown refusal shapes (OR, LEFT
// JOIN right side, views, ambiguity via self-join), and every aggregate over
// ties, all-NULL groups and empty input. SUM/AVG without DISTINCT only ever
// see doubles that are exact in binary here (C.score, never O.amount): their
// partial sums reassociate across partitions, which the oracle does not.
// STDEV/VAR and DISTINCT aggregates fold one retained list front to back, so
// O.amount is fair game for them.
var differentialFixtures = []string{
	"SELECT * FROM C",
	"SELECT name, age FROM C",
	"SELECT id, age * 2 AS double_age, score + 1 FROM C",
	"SELECT name FROM C WHERE city = 'rome'",
	"SELECT 'rome' AS k, name FROM C WHERE 'rome' = city",
	"SELECT name, age FROM C WHERE city = 'rome' AND age > 30",
	"SELECT name FROM C WHERE city = 'rome' AND age = 40",
	"SELECT name FROM C WHERE city = 'rome' OR age > 60",
	"SELECT name FROM C WHERE age = 40",
	"SELECT name FROM C WHERE city = 'atlantis'",
	"SELECT name FROM C WHERE city = 3",
	"SELECT id FROM C WHERE score IS NULL",
	"SELECT name, age FROM C ORDER BY age",
	"SELECT name, age FROM C ORDER BY age DESC, name",
	"SELECT age AS a FROM C ORDER BY a DESC",
	"SELECT city, score FROM C ORDER BY score",
	"SELECT name FROM C ORDER BY age * -1, id",
	"SELECT DISTINCT city FROM C",
	"SELECT DISTINCT city, age FROM C WHERE city = 'lima'",
	"SELECT TOP 5 name FROM C ORDER BY age DESC",
	"SELECT TOP 7 name FROM C",
	"SELECT TOP 7 name FROM C WHERE age > 40",
	"SELECT DISTINCT TOP 3 city FROM C",
	"SELECT DISTINCT TOP 3 city FROM C ORDER BY city DESC",
	"SELECT C.name, O.item FROM C JOIN O ON C.id = O.cid",
	"SELECT C.name, O.item, O.amount FROM C JOIN O ON C.id = O.cid WHERE city = 'rome'",
	"SELECT C.name, O.item FROM C JOIN O ON C.id = O.cid WHERE O.cid = 3",
	"SELECT C.name, O.item FROM C LEFT JOIN O ON C.id = O.cid ORDER BY C.id, O.oid",
	"SELECT C.name, O.amount FROM C LEFT JOIN O ON C.id = O.cid WHERE O.cid = 3",
	"SELECT COUNT(*) FROM C, O",
	"SELECT TOP 10 C.id, O.oid FROM C, O ORDER BY O.oid, C.id",
	"SELECT a.name, b.name FROM C AS a JOIN C AS b ON a.id = b.id WHERE a.city = 'oslo'",
	"SELECT COUNT(*) FROM C JOIN O ON C.id < O.cid",
	"SELECT C.name, O.item, V.age FROM C JOIN O ON C.id = O.cid JOIN V ON C.id = V.id",
	// Hash keys of every kind: TEXT, LONG = DOUBLE, DOUBLE, and mixed types.
	"SELECT a.id, b.id FROM C AS a JOIN C AS b ON a.name = b.name WHERE a.id < 30",
	"SELECT C.id, O.oid FROM C JOIN O ON C.age = O.amount",
	"SELECT C.id, O.oid FROM C LEFT JOIN O ON C.score = O.amount WHERE C.id < 20",
	"SELECT C.id, O.oid FROM C LEFT JOIN O ON C.city = O.cid",
	"SELECT O.oid, C.name FROM O JOIN C ON O.cid = C.id ORDER BY C.name, O.oid",
	// A LONG column holding doubles: on the index side, and probing one.
	"SELECT C.id, W.id FROM C JOIN W ON C.id = W.x",
	"SELECT W.id, W.x, C.id FROM W LEFT JOIN C ON W.x = C.id",
	"SELECT a.id, b.id, b.x FROM W AS a JOIN W AS b ON a.x = b.x",
	// NULL keys on both sides, duplicate keys, LEFT JOIN rows that match
	// nothing.
	"SELECT a.oid, b.oid, a.cid FROM O AS a JOIN O AS b ON a.cid = b.cid",
	"SELECT O.oid, O.cid, C.name FROM O LEFT JOIN C ON O.cid = C.id",
	// A LONG column holding DOUBLE and TEXT, keyed by bytes: indexed, probing,
	// and grouped.
	"SELECT C.id, X.id, X.x FROM C JOIN X ON C.id = X.x",
	"SELECT X.id, X.x, C.id FROM X LEFT JOIN C ON X.x = C.id",
	"SELECT x, COUNT(*), MIN(id) FROM X GROUP BY x",
	// LONGs beyond 2^53 meet DOUBLEs only where their Keys are equal.
	"SELECT B.k, E.d FROM B JOIN B AS E ON B.k = E.d",
	"SELECT E.d, B.k FROM B AS E LEFT JOIN B ON E.d = B.k",
	// A key column that a later ON reads stays in the first join's rows.
	"SELECT C.name, O.item, V.age FROM C JOIN O ON C.id = O.cid JOIN V ON O.cid = V.id",
	// Every column of a join.
	"SELECT * FROM C JOIN O ON C.id = O.cid",
	"SELECT * FROM C LEFT JOIN O ON C.id = O.cid WHERE C.id > 60",
	// One GROUP BY column of each typed kind, with NULLs.
	"SELECT cid, COUNT(*), SUM(DISTINCT amount) FROM O GROUP BY cid",
	"SELECT score, COUNT(*), MIN(name) FROM C GROUP BY score",
	"SELECT city, COUNT(*), MAX(age) FROM C GROUP BY city ORDER BY city DESC",
	"SELECT k, COUNT(*) FROM B GROUP BY k",
	"SELECT d, COUNT(*) FROM B GROUP BY d",
	// One ORDER BY key, read off the output rows: presorted, radix (LONG and
	// DOUBLE, both directions, ±0 and the limits), TEXT and the comparator
	// (mixed LONG and DOUBLE).
	"SELECT id, name FROM C ORDER BY id",
	"SELECT id, name FROM C ORDER BY id DESC",
	"SELECT oid, amount FROM O ORDER BY amount DESC",
	"SELECT oid, cid FROM O WHERE cid IS NOT NULL ORDER BY cid",
	"SELECT k, d FROM B WHERE k IS NOT NULL ORDER BY k DESC",
	"SELECT k, d FROM B WHERE d IS NOT NULL ORDER BY d",
	"SELECT id, x FROM W ORDER BY x DESC",
	"SELECT id, name FROM C ORDER BY name",
	"SELECT id, city FROM C ORDER BY city DESC",
	// A hash join whose output crosses the 1024-row batch size mid-row.
	"SELECT a.id, b.id FROM C AS a JOIN C AS b ON a.city = b.city",
	"SELECT a.id, b.name FROM C AS a LEFT JOIN C AS b ON a.city = b.city WHERE a.id > 10",
	"SELECT city, COUNT(*), AVG(age) FROM C GROUP BY city ORDER BY city",
	"SELECT city, SUM(score) FROM C GROUP BY city HAVING COUNT(*) > 10 ORDER BY city",
	"SELECT COUNT(*), MAX(score), MIN(age) FROM C",
	"SELECT COUNT(*) FROM C WHERE city = 'rome'",
	"SELECT * FROM V WHERE city = 'rome'",
	"SELECT id, city FROM V ORDER BY id",
	"SELECT 1 + 2 AS three, 'x' AS s",

	// Two-pass and DISTINCT aggregates.
	"SELECT STDEV(score), VAR(score), STDEV(age), VAR(age) FROM C",
	"SELECT STDEV(amount), VAR(amount), SUM(DISTINCT amount), AVG(DISTINCT amount) FROM O",
	"SELECT city, STDEV(score), VAR(age) FROM C GROUP BY city ORDER BY city",
	"SELECT item, STDEV(amount), COUNT(DISTINCT cid) FROM O GROUP BY item",
	"SELECT COUNT(DISTINCT city), COUNT(DISTINCT name), COUNT(city), COUNT(DISTINCT score) FROM C",
	"SELECT city, COUNT(DISTINCT age), SUM(DISTINCT age), AVG(DISTINCT score), MIN(DISTINCT age) FROM C GROUP BY city",
	"SELECT C.city, COUNT(DISTINCT O.item), STDEV(O.amount) FROM C JOIN O ON C.id = O.cid GROUP BY C.city",
	// MIN/MAX ties: every age occurs at least twice, every name two or three times; the
	// representative row (name, id) is the group's first.
	"SELECT MIN(age), MAX(age), MIN(name), MAX(name), MIN(score), MAX(score) FROM C",
	"SELECT age, name, id, MIN(id), MAX(id), MAX(city) FROM C GROUP BY age",
	// All-NULL groups: every ninth row has no score, and is its own group here.
	"SELECT id, COUNT(*), COUNT(score), SUM(score), AVG(score), MIN(score), MAX(score), STDEV(score), COUNT(DISTINCT score), SUM(DISTINCT score) FROM C WHERE id < 30 GROUP BY id",
	"SELECT city, COUNT(*), COUNT(city), MIN(city) FROM C GROUP BY city",
	// Empty input: one all-NULL group without GROUP BY, no group with it.
	"SELECT COUNT(*), COUNT(score), SUM(score), AVG(score), MIN(score), MAX(score), STDEV(score), VAR(score), COUNT(DISTINCT city), SUM(DISTINCT age) FROM C WHERE age > 1000",
	"SELECT 'none' AS k, COUNT(*) FROM C WHERE age > 1000 HAVING COUNT(*) = 0",
	"SELECT city, COUNT(*), STDEV(score) FROM C WHERE age > 1000 GROUP BY city",
	// A lone value has no sample variance.
	"SELECT id, STDEV(score), VAR(score), AVG(score) FROM C WHERE id = 5 OR id = 7 GROUP BY id",
	// HAVING, ORDER BY, DISTINCT and TOP over those.
	"SELECT city, STDEV(score) AS sd FROM C GROUP BY city HAVING COUNT(DISTINCT age) > 10 ORDER BY VAR(score) DESC, city",
	"SELECT name, COUNT(DISTINCT city) FROM C GROUP BY name HAVING STDEV(age) > 5 ORDER BY COUNT(DISTINCT city) DESC, name",
	"SELECT name, MIN(age) FROM C GROUP BY name HAVING MIN(age) = MAX(age) ORDER BY name",
	"SELECT TOP 3 city, SUM(DISTINCT age) FROM C GROUP BY city ORDER BY SUM(DISTINCT age) DESC",
	"SELECT DISTINCT TOP 2 COUNT(*) FROM C GROUP BY city",
	"SELECT DISTINCT COUNT(DISTINCT city) FROM C GROUP BY age",

	// Composite keys keep their components apart whatever the text holds.
	"SELECT DISTINCT a, b FROM P",
	"SELECT a, b, COUNT(*), SUM(n) FROM P GROUP BY a, b",
	// Nested-loop joins whose output crosses the 1024-row batch size: a cross
	// join, and a non-equi LEFT JOIN that leaves ids 59..69 unmatched.
	"SELECT C.id, O.oid FROM C, O",
	"SELECT C.id, O.oid, O.cid FROM C LEFT JOIN O ON C.id + 20 < O.cid",
	"SELECT C.id, O.oid FROM C LEFT JOIN O ON C.id + 20 < O.cid WHERE O.oid IS NULL OR O.oid > 1080",
	// TOP over a cross join: within the first batch, and past it.
	"SELECT TOP 5 C.name, O.item FROM C, O",
	"SELECT TOP 1500 C.id, O.oid FROM C, O",
	"SELECT DISTINCT TOP 4 C.city, O.item FROM C, O",
	// DISTINCT and TOP over several partitions, over selection vectors
	// (identity projection under a filter), with and without ORDER BY.
	"SELECT DISTINCT name, city FROM C",
	"SELECT DISTINCT name, city FROM C ORDER BY name DESC, city",
	"SELECT DISTINCT * FROM C WHERE age > 30",
	"SELECT TOP 7 * FROM C WHERE age > 40",
	"SELECT DISTINCT TOP 30 name FROM C",
	"SELECT DISTINCT TOP 30 name FROM C WHERE age > 25",
	"SELECT DISTINCT TOP 4 age FROM C ORDER BY age",
	"SELECT DISTINCT TOP 4 city, name FROM C WHERE score IS NOT NULL ORDER BY name, city DESC",
	// TOP 0 is a clause, not the absence of one: no rows, the schema intact.
	"SELECT TOP 0 name, age AS years FROM C",
	"SELECT TOP 0 * FROM C WHERE age > 40 ORDER BY age",
	"SELECT TOP 0 city, COUNT(*) FROM C GROUP BY city",
	"SELECT DISTINCT TOP 0 city FROM C",
}

// TestDifferentialOracle is the two-way oracle: every fixture runs through
// the reference executor above and through the engine — once at the default
// partition size (the fixtures fit in one partition) and cut into 16-row
// partitions, and a join's index read in 16-row morsels, on 1, 2 and 8
// workers — and the engine must agree with the reference byte for byte: same
// column names, same declared types, same rows in the same order. Merging in
// partition order makes the partitioned runs' row order identical too, so no
// fixture needs an unordered comparison.
func TestDifferentialOracle(t *testing.T) {
	e := differentialDB(t)
	reg := obs.NewRegistry()
	e.Instrument(reg)
	morsels := reg.Counter(obs.MetricSQLMorselsTotal)
	joinCut := false
	for _, q := range differentialFixtures {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("%s: parse: %v", q, err)
		}
		sel, ok := stmt.(*SelectStmt)
		if !ok {
			t.Fatalf("%s: not a SELECT", q)
		}
		want, err := oracleQuery(e, sel)
		if err != nil {
			t.Fatalf("%s: oracle: %v", q, err)
		}
		for _, run := range []struct{ partRows, workers int }{
			{storage.DefaultMorselSize, 4}, {smallPartRows, 1}, {smallPartRows, 2}, {smallPartRows, 8},
		} {
			e.Workers = run.workers
			before := morsels.Value()
			got, err := queryAt(context.Background(), e, q, run.partRows)
			joinCut = joinCut || (strings.Contains(q, " JOIN ") && morsels.Value() > before)
			if err != nil {
				t.Fatalf("%s: engine, %d-row partitions: %v", q, run.partRows, err)
			}
			diffRowsets(t, fmt.Sprintf("%s [%d-row partitions, %d workers]", q, run.partRows, run.workers), got, want)
		}
	}
	// The 16-row runs must actually have partitioned: most fixtures are full
	// scans of one base table.
	if n := morsels.Value(); n == 0 {
		t.Fatal("no fixture ran as more than one partition")
	}
	if !joinCut {
		t.Fatal("no join fixture ran as more than one partition")
	}
}

func diffRowsets(t *testing.T, q string, got, want *rowset.Rowset) {
	t.Helper()
	if gn, wn := got.Schema().Names(), want.Schema().Names(); fmt.Sprint(gn) != fmt.Sprint(wn) {
		t.Errorf("%s: columns %v, oracle %v", q, gn, wn)
		return
	}
	for i, wc := range want.Schema().Columns {
		if gc := got.Schema().Column(i); gc.Type != wc.Type {
			t.Errorf("%s: column %s type %v, oracle %v", q, wc.Name, gc.Type, wc.Type)
			return
		}
	}
	if got.Len() != want.Len() {
		t.Errorf("%s: %d rows, oracle %d", q, got.Len(), want.Len())
		return
	}
	for i := 0; i < want.Len(); i++ {
		gr, wr := got.Row(i), want.Row(i)
		for j := range wr {
			if rowset.Key(gr[j]) != rowset.Key(wr[j]) {
				t.Errorf("%s: row %d col %d = %v, oracle %v", q, i, j, gr[j], wr[j])
				return
			}
		}
	}
	if gs, ws := got.String(), want.String(); gs != ws {
		t.Errorf("%s: rendered rowset differs from oracle:\n--- engine ---\n%s--- oracle ---\n%s", q, gs, ws)
	}
}

// TestDifferentialErrorsAgree checks that queries the reference executor
// rejects are rejected by the pipeline with the same error text at both
// partition sizes — pushdown, lazy column resolution and partitioning must
// not mask ambiguity, unknown-column or malformed-aggregate errors.
func TestDifferentialErrorsAgree(t *testing.T) {
	e := differentialDB(t)
	e.Workers = 4
	for _, q := range []string{
		"SELECT name FROM C AS a, C AS b WHERE city = 'rome'", // ambiguous everywhere
		"SELECT nope FROM C",
		"SELECT name FROM C WHERE nope = 'rome'",
		"SELECT name FROM C JOIN O ON C.id = O.cid WHERE id = 3 AND bogus = 1",
		"SELECT *, COUNT(*) FROM C",
		"SELECT STDEV(nope) FROM C",
		"SELECT COUNT(DISTINCT nope) FROM C GROUP BY city",
		"SELECT city, COUNT(*) FROM C GROUP BY nope",
		"SELECT SUM(name) FROM C",
		"SELECT VAR(DISTINCT name) FROM C",
		"SELECT SUM(*) FROM C",
		"SELECT AVG(age, id) FROM C",
		"SELECT name FROM C ORDER BY nope",
	} {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("%s: parse: %v", q, err)
		}
		_, oErr := oracleQuery(e, stmt.(*SelectStmt))
		for _, partRows := range []int{storage.DefaultMorselSize, smallPartRows} {
			_, gErr := queryAt(context.Background(), e, q, partRows)
			if oErr == nil || gErr == nil {
				t.Errorf("%s: oracle err=%v, engine err=%v (want both non-nil)", q, oErr, gErr)
				continue
			}
			if oErr.Error() != gErr.Error() {
				t.Errorf("%s [%d-row partitions]: error mismatch\n  oracle: %v\n  engine: %v", q, partRows, oErr, gErr)
			}
		}
	}
}
