package sqlengine

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/rowset"
)

// aggregate runs the aggregating plan: every partition folds its rows into
// per-group partial states (aggAccum), the partials merge in partition order —
// so first-seen group order, representative rows and MIN/MAX tie winners are
// those of a front-to-back scan — and the merged groups go through HAVING,
// projection and ORDER BY once, then DISTINCT/TOP.
func (e *Engine) aggregate(ctx context.Context, t *obs.Trace, sel *SelectStmt, src *source) (*rowset.Rowset, error) {
	aggs, err := statementAggs(sel)
	if err != nil {
		return nil, err
	}
	plan := newAggPlan(sel, aggs, src.schema, src.resolve)
	plan.copyFirst = src.rewrites
	sp := t.StartSpan("group-by", "")
	defer t.EndSpan(sp)
	parts := make([]*aggAccum, src.n)
	var batches atomic.Int64
	err = e.forEachPartition(ctx, t, src, false, true, func(i int, cur rowset.BatchCursor, fr *frames) error {
		defer cur.Close() //nolint:errcheck // engine cursors fail only via NextBatch
		acc := &aggAccum{aggPlan: plan, frames: fr, keys: rowset.NewKeyTable(plan.keyKind, 0)}
		parts[i] = acc
		for {
			b, err := cur.NextBatch()
			if err != nil {
				return err
			}
			if b.Empty() {
				return nil
			}
			batches.Add(1)
			n := b.Len()
			for j := 0; j < n; j++ {
				if err := acc.observe(b, j); err != nil {
					return err
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	e.batches.Add(batches.Load())
	sink := parts[0]
	for _, part := range parts[1:] {
		sink.merge(part)
	}
	out, err := finishAggregate(sel, src, aggs, sink.finish(sel, src.schema))
	if err != nil {
		return nil, err
	}
	sp.SetRows(int64(out.Len()))
	if !sel.Distinct && (sel.Top == nil || out.Len() <= *sel.Top) {
		return out, nil
	}
	rows, err := tailRows(out.Rows(), sel)
	if err != nil {
		return nil, err
	}
	return rowset.Adopt(out.Schema(), rows), nil
}

// statementAggs collects every aggregate call site in the statement (items,
// HAVING, ORDER BY) and checks its arity: COUNT(*) or exactly one argument.
// Duplicate textual calls stay distinct pointers, so each site gets its own
// computed value.
func statementAggs(sel *SelectStmt) ([]*FuncCall, error) {
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
	for _, f := range aggs {
		if !(f.Star && f.Name == "COUNT") && len(f.Args) != 1 {
			return nil, fmt.Errorf("sqlengine: %s takes exactly one argument", f.Name)
		}
	}
	return aggs, nil
}

// finishedGroup is one group ready for the aggregation tail: its first input
// row and that row's frame value (the representative non-aggregate expressions
// evaluate against) and the computed value of every aggregate call site, in
// statementAggs order.
type finishedGroup struct {
	first rowset.Row
	ext   any
	vals  []rowset.Value
}

// finishAggregate applies HAVING, evaluates the projection, sorts by ORDER BY
// and materializes the result. HAVING, the items and the ORDER BY keys compile
// once, against the source schema, with every aggregate call site resolved to
// its slot of the current group's values (the frame's Ext) and a Relation's
// own resolver serving the rest against the group's first frame value. Groups
// must arrive in first-seen input order.
func finishAggregate(sel *SelectStmt, src *source, aggs []*FuncCall, groups []finishedGroup) (*rowset.Rowset, error) {
	srcSchema := src.schema
	slots := make(map[*FuncCall]int, len(aggs))
	for i, f := range aggs {
		slots[f] = i
	}
	resolve := func(e Expr) Compiled {
		f, _ := e.(*FuncCall)
		if slot, ok := slots[f]; ok {
			return func(env *Env) (rowset.Value, error) { return env.Ext.(*finishedGroup).vals[slot], nil }
		}
		if src.resolve == nil {
			return nil
		}
		if fn := src.resolve(e); fn != nil {
			return func(env *Env) (rowset.Value, error) {
				g := env.Ext.(*finishedGroup)
				if g.ext == nil && src.bind != nil {
					return nil, nil // the all-NULL group of an empty input has no frame
				}
				return fn(&Env{Row: env.Row, Ext: g.ext})
			}
		}
		return nil
	}
	var having Compiled
	if sel.Having != nil {
		having = Compile(sel.Having, srcSchema, resolve)
	}
	items := make([]Compiled, len(sel.Items))
	for i, it := range sel.Items {
		items[i] = Compile(it.Expr, srcSchema, resolve)
	}
	names := outputNames(sel.Items)
	order := compileOrderKeys(sel.OrderBy, names, srcSchema, resolve)

	var outRows []rowset.Row
	var keyRows []rowset.Row
	for gi := range groups {
		env := Env{Row: groups[gi].first, Ext: &groups[gi]}
		if having != nil {
			ok, err := having.Test(&env)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		out := make(rowset.Row, len(items))
		for i, fn := range items {
			v, err := fn(&env)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		keys := make(rowset.Row, len(order))
		if err := evalOrderKeys(order, out, &env, keys); err != nil {
			return nil, err
		}
		outRows = append(outRows, out)
		keyRows = append(keyRows, keys)
	}
	if len(sel.OrderBy) > 0 {
		rowset.SortByKeys(outRows, keyRows, descFlags(sel.OrderBy))
	}

	schema, err := outputSchema(sel.Items, names, srcSchema, outRows, src.untyped)
	if err != nil {
		return nil, err
	}
	return rowset.FromRows(schema, outRows)
}

// aggregatesIn calls f on each aggregate call in e, looking neither into an
// aggregate's arguments (aggregates cannot nest) nor into a subquery (its
// aggregates are its own).
func aggregatesIn(e Expr, f func(*FuncCall)) {
	Inspect(e, func(x Expr) bool {
		switch x := x.(type) {
		case *Subquery, *Exists:
			return false
		case *FuncCall:
			if aggregateFuncs[x.Name] {
				f(x)
				return false
			}
		}
		return true
	})
}

// aggState is one aggregate call site's mergeable partial state within one
// group. COUNT/SUM/AVG keep the non-NULL count and running sums, MIN/MAX the
// running winner. STDEV/VAR (two passes over the group) and DISTINCT
// aggregates instead retain their non-NULL argument values — first
// occurrences only under DISTINCT — in input order: merging appends the later
// partition's list and value folds the list front to back, so their results
// do not depend on how the input was partitioned.
type aggState struct {
	n      int64 // non-NULL values folded into the sums
	fsum   float64
	isum   int64
	allInt bool
	best   rowset.Value // MIN/MAX candidate; nil until a value arrives
	vals   []rowset.Value
	seen   *rowset.KeyTable // DISTINCT only: the keys of vals, KeyBytes
}

// retainsValues reports whether f's state is the retained value list rather
// than running sums. MIN/MAX ignore DISTINCT: duplicates cannot change them.
func retainsValues(f *FuncCall) bool {
	switch f.Name {
	case "STDEV", "VAR":
		return true
	case "MIN", "MAX":
		return false
	}
	return f.Distinct
}

// observe folds one evaluated argument value into the state. The caller skips
// COUNT(*) sites entirely (the group's row count covers them).
func (s *aggState) observe(f *FuncCall, v rowset.Value) error {
	if v == nil {
		return nil
	}
	switch f.Name {
	case "MIN":
		if s.best == nil || rowset.Compare(v, s.best) < 0 {
			s.best = v
		}
		return nil
	case "MAX":
		if s.best == nil || rowset.Compare(v, s.best) > 0 {
			s.best = v
		}
		return nil
	case "COUNT":
		if f.Distinct {
			s.retain(v, true)
		} else {
			s.n++
		}
		return nil
	}
	if !retainsValues(f) {
		return s.add(f, v)
	}
	if _, ok := rowset.ToFloat(v); !ok {
		return errNotNumeric(f, v)
	}
	s.retain(v, f.Distinct)
	return nil
}

func errNotNumeric(f *FuncCall, v rowset.Value) error {
	return fmt.Errorf("sqlengine: %s requires numeric values, got %s", f.Name, rowset.TypeOf(v))
}

// add folds one value into the count and running sums.
func (s *aggState) add(f *FuncCall, v rowset.Value) error {
	fv, ok := rowset.ToFloat(v)
	if !ok {
		return errNotNumeric(f, v)
	}
	s.n++
	s.fsum += fv
	if iv, ok := v.(int64); ok {
		s.isum += iv
	} else {
		s.allInt = false
	}
	return nil
}

// retain appends v to the value list; under DISTINCT only its first
// occurrence.
func (s *aggState) retain(v rowset.Value, distinct bool) {
	if distinct {
		if s.seen == nil {
			s.seen = rowset.NewKeyTable(rowset.KeyBytes, 0)
		}
		if n := s.seen.Len(); int(s.seen.Add(v)) < n {
			return // an earlier value's id
		}
	}
	s.vals = append(s.vals, v)
}

// merge folds o — partial state from a LATER partition — into s. Keeping the
// earlier side's best on ties reproduces a front-to-back scan's
// strict-improvement rule for MIN/MAX.
func (s *aggState) merge(o *aggState, f *FuncCall) {
	s.n += o.n
	s.fsum += o.fsum
	s.isum += o.isum
	s.allInt = s.allInt && o.allInt
	if o.best != nil {
		if s.best == nil {
			s.best = o.best
		} else if c := rowset.Compare(o.best, s.best); (f.Name == "MIN" && c < 0) || (f.Name == "MAX" && c > 0) {
			s.best = o.best
		}
	}
	for _, v := range o.vals {
		s.retain(v, f.Distinct)
	}
}

// value finalizes the state: COUNT(*) is the group's row count, aggregates
// over no non-NULL value are NULL (COUNT: 0), an all-integer SUM stays
// integral, and STDEV/VAR are the sample statistics (NULL below two values).
func (s *aggState) value(f *FuncCall, groupRows int64) rowset.Value {
	if f.Star {
		return groupRows
	}
	st := *s
	if retainsValues(f) {
		if f.Name == "COUNT" {
			return int64(len(s.vals))
		}
		st = aggState{allInt: true}
		for _, v := range s.vals {
			st.add(f, v) //nolint:errcheck // observe retained numeric values only
		}
	}
	switch f.Name {
	case "COUNT":
		return st.n
	case "MIN", "MAX":
		return st.best
	}
	if st.n == 0 {
		return nil
	}
	switch f.Name {
	case "SUM":
		if st.allInt {
			return st.isum
		}
		return st.fsum
	case "AVG":
		return st.fsum / float64(st.n)
	}
	if st.n < 2 {
		return nil
	}
	mean := st.fsum / float64(st.n)
	var ss float64
	for _, v := range s.vals {
		fv, _ := rowset.ToFloat(v)
		d := fv - mean
		ss += d * d
	}
	variance := ss / float64(st.n-1)
	if f.Name == "VAR" {
		return variance
	}
	return math.Sqrt(variance)
}

// pgroup is one group's partial aggregation: its key (the GROUP BY value, or
// the composite key bytes of several), its first row seen (within the
// partition; the merge keeps the earliest partition's), the row count, and
// one aggState per aggregate call site.
type pgroup struct {
	key    rowset.Value
	first  rowset.Row
	ext    any // first's frame value
	count  int64
	states []aggState
}

func newPgroup(key rowset.Value, first rowset.Row, ext any, naggs int) *pgroup {
	pg := &pgroup{key: key, first: first, ext: ext, states: make([]aggState, naggs)}
	for i := range pg.states {
		pg.states[i].allInt = true
	}
	return pg
}

// aggPlan is the statement's compiled group keys and aggregate arguments,
// built once and shared read-only by every partition's accumulator. One
// GROUP BY column keys its groups by its declared type; any other list by
// its composite key bytes.
type aggPlan struct {
	aggs    []*FuncCall
	keyFns  []Compiled
	keyKind rowset.KeyKind
	argFns  []Compiled // nil entry = COUNT(*): no per-row work
	// copyFirst: an input row may be written over by the next batch (a
	// join's reused value array), so a group keeps a copy of its first.
	copyFirst bool
}

func newAggPlan(sel *SelectStmt, aggs []*FuncCall, schema *rowset.Schema, resolve Resolver) *aggPlan {
	p := &aggPlan{
		aggs:   aggs,
		keyFns: make([]Compiled, len(sel.GroupBy)),
		argFns: make([]Compiled, len(aggs)),
	}
	for i, g := range sel.GroupBy {
		p.keyFns[i] = Compile(g, schema, resolve)
	}
	if len(sel.GroupBy) == 1 {
		if cr, ok := sel.GroupBy[0].(*ColumnRef); ok {
			if ord, err := ResolveColumn(schema, cr.Qualifier, cr.Name); err == nil {
				t := schema.Column(ord).Type
				p.keyKind = rowset.KeyKindOf(t, t)
			}
		}
	}
	for i, f := range aggs {
		if !f.Star {
			p.argFns[i] = Compile(f.Args[0], schema, resolve)
		}
	}
	return p
}

// aggAccum streams one partition's rows into per-group partial states, with
// the partition's frame values (nil unless the source is a Relation). A
// group's id in keys is its index in groups, in first-seen order. Not
// goroutine-safe — one accumulator per partition.
type aggAccum struct {
	*aggPlan
	frames *frames
	env    Env
	keys   *rowset.KeyTable
	groups []*pgroup
	keyBuf []byte
}

// observe folds live row i of b.
func (a *aggAccum) observe(b rowset.Batch, i int) error {
	a.frames.load(&a.env, b, i)
	var key rowset.Value
	if len(a.keyFns) == 1 {
		v, err := a.keyFns[0](&a.env)
		if err != nil {
			return err
		}
		key = v
	} else {
		a.keyBuf = a.keyBuf[:0]
		for _, kf := range a.keyFns {
			v, err := kf(&a.env)
			if err != nil {
				return err
			}
			a.keyBuf = rowset.AppendKeyPart(a.keyBuf, v)
		}
	}
	id := a.id(key, a.keyBuf)
	if int(id) == len(a.groups) {
		if len(a.keyFns) != 1 {
			key = string(a.keyBuf)
		}
		first := a.env.Row
		if a.copyFirst {
			first = slices.Clone(first)
		}
		a.groups = append(a.groups, newPgroup(key, first, a.env.Ext, len(a.aggs)))
	}
	grp := a.groups[id]
	grp.count++
	for ai, fn := range a.argFns {
		if fn == nil {
			continue
		}
		v, err := fn(&a.env)
		if err != nil {
			return err
		}
		if err := grp.states[ai].observe(a.aggs[ai], v); err != nil {
			return err
		}
	}
	return nil
}

// id returns the group id of key — or, for any number of GROUP BY keys but
// one, of the composite key bytes kb — giving an unseen key the next one.
func (a *aggAccum) id(key rowset.Value, kb []byte) int32 {
	if len(a.keyFns) == 1 {
		return a.keys.Add(key)
	}
	id, _ := a.keys.Bytes(kb, true)
	return id
}

// merge folds o — the accumulator of the NEXT partition — into a: groups a
// has not seen are appended in o's first-seen order, the others merge state
// by state.
func (a *aggAccum) merge(o *aggAccum) {
	for _, pg := range o.groups {
		var kb []byte
		if len(a.keyFns) != 1 {
			kb = []byte(pg.key.(string))
		}
		id := a.id(pg.key, kb)
		if int(id) == len(a.groups) {
			a.groups = append(a.groups, pg)
			continue
		}
		got := a.groups[id]
		got.count += pg.count
		for i, f := range a.aggs {
			got.states[i].merge(&pg.states[i], f)
		}
	}
}

// finish applies the empty-input rule (aggregation without GROUP BY over zero
// rows yields one all-NULL group) and finalizes every state into the
// finishedGroup form the aggregation tail consumes.
func (a *aggAccum) finish(sel *SelectStmt, schema *rowset.Schema) []finishedGroup {
	if len(sel.GroupBy) == 0 && len(a.groups) == 0 {
		a.groups = append(a.groups, newPgroup(nil, make(rowset.Row, schema.Len()), nil, len(a.aggs)))
	}
	groups := make([]finishedGroup, 0, len(a.groups))
	for _, pg := range a.groups {
		vals := make([]rowset.Value, len(a.aggs))
		for ai, f := range a.aggs {
			vals[ai] = pg.states[ai].value(f, pg.count)
		}
		groups = append(groups, finishedGroup{first: pg.first, ext: pg.ext, vals: vals})
	}
	return groups
}
