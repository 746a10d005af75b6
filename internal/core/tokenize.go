package core

import (
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/par"
	"repro/internal/rowset"
)

// Tokenizer converts hierarchical casesets (rowsets with nested TABLE
// columns) into the sparse attribute-vector Cases consumed by mining
// algorithms. This is the mechanism behind the paper's claim that
// consolidating an entity's information into one case "eliminates the need
// for data mining algorithms to do considerable bookkeeping": the provider
// does the bookkeeping once, here.
//
// During training the tokenizer grows the attribute space — new discrete
// states extend dictionaries, new nested keys mint existence attributes.
// After Freeze (called when training completes) the space is read-only and
// unseen values tokenize as missing.
type Tokenizer struct {
	Def    *ModelDef
	Space  *AttributeSpace
	frozen bool
}

// NewTokenizer builds a tokenizer (and the initial attribute space) for def.
// Scalar attributes exist immediately; table-derived attributes appear as
// training data mentions their nested keys.
func NewTokenizer(def *ModelDef) *Tokenizer {
	tk := &Tokenizer{Def: def, Space: NewAttributeSpace()}
	for i := range def.Columns {
		c := &def.Columns[i]
		if c.Content != ContentAttribute {
			continue
		}
		tk.Space.Add(scalarAttribute(c))
	}
	return tk
}

// NewTokenizerWithSpace rebinds an attribute space for continued training
// (the space may still grow). A decoded space must be Reindexed first.
func NewTokenizerWithSpace(def *ModelDef, space *AttributeSpace) *Tokenizer {
	return &Tokenizer{Def: def, Space: space}
}

// Freeze stops the attribute space from growing; prediction-time inputs with
// unseen states tokenize as missing values.
func (tk *Tokenizer) Freeze() { tk.frozen = true }

func scalarAttribute(c *ColumnDef) Attribute {
	a := Attribute{
		Name:         c.Name,
		Column:       c.Name,
		IsTarget:     c.IsOutput(),
		IsInput:      c.IsInput(),
		Distribution: c.Distribution,
	}
	switch {
	case c.ModelExistenceOnly:
		a.Kind = KindExistence
	case c.AttrType == AttrContinuous || c.AttrType == AttrSequenceTime:
		a.Kind = KindContinuous
	case c.AttrType == AttrDiscretized:
		// Continuous until the training pipeline installs cut points.
		a.Kind = KindContinuous
	default:
		a.Kind = KindDiscrete
	}
	return a
}

// Tokenize converts every row of a hierarchical caseset rowset into a Case,
// binding columns by name, on up to GOMAXPROCS goroutines.
func (tk *Tokenizer) Tokenize(rs *rowset.Rowset) (*Caseset, error) {
	cb, err := tk.NewCaseBinder(BindByName(tk.Def.Columns, rs.Schema()))
	if err != nil {
		return nil, err
	}
	out := &Caseset{Space: tk.Space}
	//dmlint:allow ctxflow — Tokenize is the context-free convenience form of TokenizeRows for callers holding a whole rowset.
	return out, cb.TokenizeRows(context.Background(), par.NewForks(0), rs.Rows(), &out.Cases)
}

// ColumnSource says where one model column's values are in a source row: the
// ordinal of the source column (-1 when nothing is bound to the model column)
// and, for a TABLE column, the ordinal inside the nested rowset of each of its
// nested columns. A TABLE column the source keeps apart from its rows (a SHAPE
// APPEND, shape.Caseset) names its rows in Rows, and Nested indexes Rows'
// column map; otherwise each source row holds the nested table as a
// *rowset.Rowset cell.
type ColumnSource struct {
	Ord    int
	Nested []int
	Rows   *rowset.Groups
}

// BindByName binds every model column to the source column of the same name,
// nested columns included. A column the source lacks stays unbound, and so
// does a TABLE column whose source column is no nested table or has none of
// its nested columns: prediction inputs are partial by design, and training
// reports what it misses.
func BindByName(cols []ColumnDef, src *rowset.Schema) []ColumnSource {
	out := make([]ColumnSource, len(cols))
	for i := range cols {
		out[i].Ord = -1
		ord, ok := src.Lookup(cols[i].Name)
		if ok && cols[i].Content == ContentTable {
			ok = false
			if nested := src.Column(ord).Nested; nested != nil {
				for _, ns := range BindByName(cols[i].Table, nested) {
					out[i].Nested = append(out[i].Nested, ns.Ord)
					ok = ok || ns.Ord >= 0
				}
			}
		}
		if ok {
			out[i].Ord = ord
		}
	}
	return out
}

// NestedColumnTypeError reports a source column that is bound to a nested
// TABLE model column but whose cell value is not a nested rowset. Before this
// error existed, a mistyped nested column was silently treated as an empty
// nested table, which yields wrong predictions instead of a diagnosis.
type NestedColumnTypeError struct {
	// Column is the model's TABLE column name.
	Column string
	// Got is the rowset type name of the offending value.
	Got string
}

func (e *NestedColumnTypeError) Error() string {
	return fmt.Sprintf("provider: column %q is bound to a nested TABLE column but the source value is %s, not a nested table",
		e.Column, e.Got)
}

// CaseBinder turns source rows into cases in one step: the statement's column
// binding and the model's tokenization, resolved against each other once. It
// reads the source row where the executor left it — no intermediate rowset in
// the model's layout — and resolves nested keys to attribute ordinals through
// the space's dictionaries.
//
// The binder itself is read-only after construction, so one over a frozen
// tokenizer may be shared by concurrent goroutines: frozen tokenization writes
// nothing but the caller's case (unseen states and nested keys are missing
// values, relations are ignored).
type CaseBinder struct {
	tk     *Tokenizer
	keyOrd int
	cols   []columnBinding
}

// columnBinding is one bound model column other than the key. Attributes and
// tables come first, in model order, so attributes are minted in the order
// they always were; qualifiers and relations need their targets and follow.
type columnBinding struct {
	def *ColumnDef
	ord int
	// attr is the attribute a scalar column tokenizes into, or the one a
	// qualifier qualifies (-1: the case as a whole).
	attr int
	// related and relOrd are the column a relation classifies and where its
	// values are in the source row.
	related string
	relOrd  int
	table   *tableBinding
}

type tableBinding struct {
	// rows holds the nested rows when the source keeps them apart; the
	// ordinals below are then columns of its Base rows.
	rows           *rowset.Groups
	keyOrd, seqOrd int
	dict           *nestedDict
	// cols are the bound nested columns other than the key, attributes first.
	cols []nestedBinding
}

type nestedBinding struct {
	def *ColumnDef
	ord int
	// slot is where in a key's record the attribute an attribute column mints
	// is, or the one a qualifier column qualifies (-1: none).
	slot int
}

// NewCaseBinder resolves what the values of every model column tokenize into,
// given where they are in a source row (cols, one entry per model column).
func (tk *Tokenizer) NewCaseBinder(cols []ColumnSource) (*CaseBinder, error) {
	cb := &CaseBinder{tk: tk, keyOrd: -1}
	var late []columnBinding
	for i := range tk.Def.Columns {
		c := &tk.Def.Columns[i]
		b := columnBinding{def: c, ord: cols[i].Ord, attr: -1}
		if b.ord < 0 {
			if !tk.frozen && c.Content != ContentQualifier && c.Content != ContentRelation {
				return nil, fmt.Errorf("core: model %s: training input lacks column %q", tk.Def.Name, c.Name)
			}
			continue
		}
		switch c.Content {
		case ContentKey:
			cb.keyOrd = b.ord
		case ContentAttribute:
			var ok bool
			if b.attr, ok = tk.Space.Lookup(c.Name); !ok {
				return nil, fmt.Errorf("core: attribute %q missing from space", c.Name)
			}
			cb.cols = append(cb.cols, b)
		case ContentTable:
			var err error
			if b.table, err = tk.bindTable(c, cols[i]); err != nil {
				return nil, err
			}
			cb.cols = append(cb.cols, b)
		case ContentQualifier:
			if a, ok := tk.Space.Lookup(c.QualifierOf); ok {
				b.attr = a
			}
			late = append(late, b)
		case ContentRelation:
			// Relations are training metadata; a frozen space is shared
			// read-only, so prediction inputs carrying them are ignored.
			for j := range tk.Def.Columns {
				if t := &tk.Def.Columns[j]; !tk.frozen && cols[j].Ord >= 0 && strings.EqualFold(t.Name, c.RelatedTo) {
					b.related, b.relOrd = t.Name, cols[j].Ord
					late = append(late, b)
					break
				}
			}
		}
	}
	cb.cols = append(cb.cols, late...)
	return cb, nil
}

func (tk *Tokenizer) bindTable(c *ColumnDef, src ColumnSource) (*tableBinding, error) {
	// The dictionary of a published space is complete: a column without one
	// has no attributes to find.
	tb := &tableBinding{rows: src.Rows, keyOrd: -1, seqOrd: -1, dict: tk.Space.dict(c.Name, !tk.frozen)}
	var late []nestedBinding
	for j := range c.Table {
		nc := &c.Table[j]
		ord := -1
		if j < len(src.Nested) {
			ord = src.Nested[j]
		}
		// Rows kept apart are read as stored: the child's projection is
		// composed into the ordinal here, once.
		if ord >= 0 && tb.rows != nil && tb.rows.Cols != nil {
			ord = tb.rows.Cols[ord]
		}
		nb := nestedBinding{def: nc, ord: ord}
		switch {
		case ord < 0:
			if !tk.frozen && nc.Content == ContentKey {
				return nil, fmt.Errorf("core: model %s: nested table %q input lacks key column %q",
					tk.Def.Name, c.Name, nc.Name)
			}
		case nc.Content == ContentKey:
			tb.keyOrd = ord
		case nc.Content == ContentAttribute:
			if nc.AttrType == AttrSequenceTime && tb.seqOrd < 0 {
				tb.seqOrd = ord
			}
			nb.slot = tb.dict.slot(nc.Name, !tk.frozen)
			tb.cols = append(tb.cols, nb)
		case nc.Content == ContentQualifier:
			// A qualifier of the nested key qualifies the existence
			// attribute; one of a nested attribute, the derived valued one.
			if t, ok := findColumn(c.Table, nc.QualifierOf); ok && t.Content != ContentKey {
				nb.slot = tb.dict.slot(t.Name, !tk.frozen)
			}
			late = append(late, nb)
		case !tk.frozen: // ContentRelation
			late = append(late, nb)
		}
	}
	if tb.keyOrd < 0 {
		return nil, fmt.Errorf("core: model %s: nested table %q input lacks its key column", tk.Def.Name, c.Name)
	}
	tb.cols = append(tb.cols, late...)
	return tb, nil
}

// tokenizeRange is how many rows a training tokenize takes as one range. The
// ranges depend on the row count alone, never on the worker count, so what
// each one mints — and so the space — is the same at any parallelism. A few
// thousand cases still spread over the workers, and the first range, which
// runs alone, stays a small share of them.
const tokenizeRange = 256

// TokenizeRows appends the case of every row to out, in order. rows[i] is case
// i of the source, the one the groups of a TABLE column kept apart from the
// rows (ColumnSource.Rows) hold at i. On an error out holds the cases of the
// rows before the failing one; a cancelled ctx leaves out as it was.
//
// Cases are encoded into out's spare room, sized first from the most cells
// the rows could make: grown by appending, the arena would be reallocated —
// and copied — a few dozen times on the way. A frozen binder encodes inline,
// and allocates nothing per row. A training binder cuts the rows into fixed
// ranges, each a task on forks with its own part of that room:
//   - Each range encodes its rows against the space as it stood when the
//     range started, and lists, in first-seen order, what the space lacked.
//     The first range runs alone and is merged first, so the others mostly
//     find what it minted instead of listing it again.
//   - Merging the lists in range order grows the space exactly as one
//     front-to-back pass would.
//   - Each range that missed something encodes again, against the now
//     read-only space; the parts are joined in range order.
func (cb *CaseBinder) TokenizeRows(ctx context.Context, forks *par.Forks, rows []rowset.Row, out *Cases) error {
	out.Ends = slices.Grow(out.Ends, len(rows))
	out.Weights = slices.Grow(out.Weights, len(rows))
	out.Keys = slices.Grow(out.Keys, len(rows))
	out.Cells = slices.Grow(out.Cells, cb.cells(rows, 0, len(rows)))
	if cb.tk.frozen || len(rows) == 0 {
		return cb.encode(rows, 0, len(rows), out, nil)
	}
	span := func(r int) (int, int) { return r * tokenizeRange, min(len(rows), (r+1)*tokenizeRange) }
	// A range's part of out: its cells in out's spare cell room, and its case
	// facts where the range's cases go.
	ps := make([]pass, Ranges(len(rows)))
	for r, at, b := 0, len(out.Cells), out.Len(); r < len(ps); r++ {
		lo, hi := span(r)
		end := at + cb.cells(rows, lo, hi)
		ps[r] = pass{seen: make(map[mint]int32), rels: make(map[string]string), cases: Cases{Cells: out.Cells[at:at:end],
			Ends: out.Ends[b+lo : b+lo : b+hi], Weights: out.Weights[b+lo : b+lo : b+hi], Keys: out.Keys[b+lo : b+lo : b+hi]}}
		at = end
	}
	encode := func(r int, _ bool) error { // from the range's first row not encoded yet
		lo, hi := span(r)
		ps[r].err = cb.encode(rows, lo+ps[r].cases.Len(), hi, &ps[r].cases, &ps[r])
		return ps[r].err
	}
	n, err := len(ps), encode(0, false)
	cb.merge(&ps[0])
	if err == nil {
		err = forks.Run(ctx, n-1, func(r int, forked bool) error { return encode(r+1, forked) })
	}
	if err != nil { // every range before the failing one ran; none after it counts
		n = slices.IndexFunc(ps, func(p pass) bool { return p.err != nil }) + 1
	}
	for r := range n {
		if r > 0 {
			cb.merge(&ps[r])
		}
		if c := &ps[r].cases; ps[r].missed {
			c.Cells, c.Ends, c.Weights, c.Keys, c.Seqs = c.Cells[:0], c.Ends[:0], c.Weights[:0], c.Keys[:0], nil
		}
	}
	if err = forks.Run(ctx, n, encode); ctx.Err() != nil {
		return ctx.Err()
	}
	// Join the parts: the cells close up over the slack, the ends are shifted
	// by where their range's cells now start, and the weights and keys are
	// already in place.
	for r := range n {
		c, at := &ps[r].cases, int32(len(out.Cells))
		if len(c.Seqs) > 0 {
			out.Seqs = append(append(out.Seqs, make([][]Sequence, out.Len()-len(out.Seqs))...), c.Seqs...)
		}
		out.Cells = append(out.Cells, c.Cells...)
		for _, end := range c.Ends {
			out.Ends = append(out.Ends, at+end)
		}
		out.Weights, out.Keys = out.Weights[:len(out.Ends)], out.Keys[:len(out.Ends)]
	}
	return err
}

// encode appends the cases of rows [lo, hi) to out, each in out's spare room.
func (cb *CaseBinder) encode(rows []rowset.Row, lo, hi int, out *Cases, p *pass) error {
	var c Case
	for i := lo; i < hi; i++ {
		c.cells = out.Cells[len(out.Cells):]
		if err := cb.tokenizeRow(rows[i], i, &c, p); err != nil {
			return err
		}
		out.Append(c)
	}
	return nil
}

// cells returns the most cells rows [lo, hi) can make: one per scalar
// attribute, and per nested row of a kept-apart table (from its Ends) or of a
// *rowset.Rowset cell, one plus one per nested column.
func (cb *CaseBinder) cells(rows []rowset.Row, lo, hi int) int {
	n := 0
	for i := range cb.cols {
		switch tb := cb.cols[i].table; {
		case tb == nil && cb.cols[i].def.Content == ContentAttribute:
			n += hi - lo
		case tb == nil || lo == hi:
		case tb.rows != nil:
			a, _ := tb.rows.Bounds(lo)
			_, b := tb.rows.Bounds(hi - 1)
			n += (b - a) * (1 + len(tb.cols))
		default:
			for _, row := range rows[lo:hi] {
				if nested, ok := row[cb.cols[i].ord].(*rowset.Rowset); ok {
					n += nested.Len() * (1 + len(tb.cols))
				}
			}
		}
	}
	return n
}

// pass is one range of a training tokenize: its cases, and what its rows need
// that the space lacked when they were encoded — attributes, each a nested
// key's record slot, and discrete states — listed in items, once each, in the
// order a front-to-back pass would meet them. rels are the range's last
// relation writes.
type pass struct {
	items  []mint
	seen   map[mint]int32
	rels   map[string]string
	cases  Cases
	missed bool // a row met something the space lacked: encode again after the merge
	err    error
}

// mint is an attribute — slot of key's record in dictionary d, of TABLE
// column tcol and nested column ncol (nil: existence) — or, with d nil, state
// text of attribute attr (^item: an attribute the range mints itself).
type mint struct {
	d          *nestedDict
	tcol, ncol *ColumnDef
	slot       int
	key, text  string
	attr       int32
}

// list returns m's item number, listing m if the range has not yet.
func (p *pass) list(m mint) int32 {
	p.missed = true
	if _, ok := p.seen[m]; !ok {
		p.items, p.seen[m] = append(p.items, m), int32(len(p.items))
	}
	return p.seen[m]
}

// merge adds to the space what p lists and an earlier range did not add.
func (cb *CaseBinder) merge(p *pass) {
	sp := cb.tk.Space
	ords := make([]int32, len(p.items))
	for j, it := range p.items {
		if it.d == nil {
			a := it.attr
			if a < 0 {
				a = ords[^a]
			}
			if attr := sp.Attr(int(a)); attr.StateIndex(it.text) < 0 {
				attr.addState(it.text)
			}
			continue
		}
		if ords[j] = ord(it.d.recs[it.key], it.slot); ords[j] < 0 {
			ords[j] = int32(sp.Add(nestedAttribute(it.tcol, it.ncol, it.key)))
			it.d.set(it.key, it.slot, ords[j])
		}
	}
	maps.Copy(sp.Relations, p.rels)
}

// nestedAttribute is the attribute key of TABLE column tcol mints: its
// existence attribute, or with ncol its valued attribute for that column.
func nestedAttribute(tcol, ncol *ColumnDef, key string) Attribute {
	a := Attribute{Name: tcol.Name + "(" + key + ")", Column: tcol.Name, NestedKey: key, Kind: KindExistence,
		IsTarget: tcol.IsOutput(), IsInput: tcol.IsInput()}
	if ncol != nil {
		a.Name, a.NestedColumn, a.Kind = a.Name+"."+ncol.Name, ncol.Name, KindDiscrete
		a.IsTarget, a.Distribution = a.IsTarget || ncol.IsOutput(), ncol.Distribution
		if ncol.AttrType.IsNumericLike() {
			a.Kind = KindContinuous
		}
	}
	return a
}

// tokenizeRow overwrites c with the case of source row i, reusing c's cell
// buffer: over a frozen tokenizer (p nil) it allocates nothing once the
// buffer has grown to fit (a SEQUENCE_TIME column's ordered keys excepted).
// In a training, what the space lacks is listed in p.
func (cb *CaseBinder) tokenizeRow(row rowset.Row, i int, c *Case, p *pass) error {
	c.reset()
	if cb.keyOrd >= 0 {
		c.Key = row[cb.keyOrd]
	}
	for k := range cb.cols {
		b := &cb.cols[k]
		if tb := b.table; tb != nil {
			var nested []rowset.Row
			var pos []int32
			if g := tb.rows; g != nil {
				lo, hi := g.Bounds(i)
				if lo == hi {
					continue
				}
				nested, pos = g.Base, g.Pos[lo:hi]
			} else if v := row[b.ord]; v != nil {
				rs, ok := v.(*rowset.Rowset)
				if !ok {
					return &NestedColumnTypeError{Column: b.def.Name, Got: rowset.TypeOf(v).String()}
				}
				nested = rs.Rows()
			}
			if err := cb.tokenizeNested(c, p, b.def, tb, nested, pos); err != nil {
				return err
			}
			continue
		}
		v := row[b.ord]
		switch b.def.Content {
		case ContentAttribute:
			if err := cb.setScalar(c, p, b.def, b.attr, v); err != nil {
				return err
			}
		case ContentQualifier:
			if v != nil {
				applyQualifier(c, b.def, b.attr, v)
			}
		case ContentRelation: // bound only while training
			if v != nil && row[b.relOrd] != nil {
				p.rels[relationKey(b.related, rowset.FormatValue(row[b.relOrd]))] = rowset.FormatValue(v)
			}
		}
	}
	return nil
}

// setScalar tokenizes one scalar attribute value into the case.
func (cb *CaseBinder) setScalar(c *Case, p *pass, col *ColumnDef, idx int, v rowset.Value) error {
	if v == nil {
		if col.NotNull && !cb.tk.frozen {
			return fmt.Errorf("core: column %q is NOT_NULL but the input has a NULL", col.Name)
		}
		return nil
	}
	a := cb.tk.Space.Attr(idx)
	// Discretized attributes with installed cut points bucket incoming
	// numeric values no matter their current Kind (training rewrites the
	// kind to discrete; prediction inputs still arrive as raw numbers).
	if len(a.Cuts) > 0 {
		f, ok := rowset.ToFloat(v)
		if !ok {
			return fmt.Errorf("core: column %q: non-numeric value %v for discretized attribute",
				col.Name, v)
		}
		c.put(idx, int32(bucketOf(f, a.Cuts)), 0)
		return nil
	}
	switch a.Kind {
	case KindExistence:
		c.put(idx, numCode, 1)
	case KindContinuous:
		f, ok := rowset.ToFloat(v)
		if !ok {
			return fmt.Errorf("core: column %q: non-numeric value %v for continuous attribute",
				col.Name, v)
		}
		c.put(idx, numCode, f)
	default: // KindDiscrete
		setState(c, p, a, idx, v)
	}
	return nil
}

// setState gives discrete attribute idx the state v names. A state the space
// lacks is listed while training, and else is a missing value.
func setState(c *Case, p *pass, a *Attribute, idx int, v rowset.Value) {
	if st, ok := codeOf(a.stateOf, v); ok {
		c.put(idx, st, 0)
	} else if p != nil {
		p.list(mint{text: rowset.FormatValue(v), attr: int32(idx)})
	}
}

// tokenizeNested converts a case's nested table — rows[p] for p in pos, or
// every row when pos is nil — into existence and valued attributes, one
// dictionary probe per nested row. When the nested table carries a
// SEQUENCE_TIME attribute the nested keys are also recorded on the case in
// time order (Case.Sequences), preserving the ordering that existence
// attributes alone discard — the raw material for sequence-analysis services.
func (cb *CaseBinder) tokenizeNested(c *Case, p *pass, tcol *ColumnDef, tb *tableBinding, rows []rowset.Row, pos []int32) error {
	type seqEntry struct {
		t   float64
		key string
	}
	var seq []seqEntry
	n := len(rows)
	if pos != nil {
		n = len(pos)
	}
	for j := range n {
		nrow := rows[j]
		if pos != nil {
			nrow = rows[pos[j]]
		}
		kv := nrow[tb.keyOrd]
		if kv == nil {
			continue
		}
		if tb.seqOrd >= 0 {
			if ts, ok := rowset.ToFloat(nrow[tb.seqOrd]); ok {
				seq = append(seq, seqEntry{t: ts, key: rowset.FormatValue(kv)})
			}
		}
		rec, _ := codeOf(tb.dict.recs, kv)
		if ex := ord(rec, 0); ex >= 0 {
			c.put(int(ex), numCode, 1)
		} else if p == nil {
			continue // unseen nested key at prediction time
		} else {
			p.list(mint{d: tb.dict, tcol: tcol, key: rowset.FormatValue(kv)})
		}
		for j := range tb.cols {
			nb := &tb.cols[j]
			v := nrow[nb.ord]
			if v == nil {
				continue
			}
			switch nb.def.Content {
			case ContentRelation: // bound only while training
				p.rels[relationKey(tcol.Name, rowset.FormatValue(kv))] = rowset.FormatValue(v)
			case ContentQualifier:
				if idx := ord(rec, nb.slot); idx >= 0 {
					applyQualifier(c, nb.def, int(idx), v)
				} else if p != nil {
					p.missed = true // its attribute may be one the range lists
				}
			case ContentAttribute:
				if err := cb.setNested(c, p, tcol, tb, nb, rec, kv, v); err != nil {
					return err
				}
			}
		}
	}
	if len(seq) > 0 {
		sort.SliceStable(seq, func(i, j int) bool { return seq[i].t < seq[j].t })
		keys := make([]string, len(seq))
		for i, e := range seq {
			keys[i] = e.key
		}
		c.Sequences = append(c.Sequences, Sequence{Table: tcol.Name, Keys: keys})
	}
	return nil
}

// setNested tokenizes the value v of nested attribute column nb in the nested
// row keyed kv, whose record in the table's dictionary is rec.
func (cb *CaseBinder) setNested(c *Case, p *pass, tcol *ColumnDef, tb *tableBinding, nb *nestedBinding, rec []int32, kv, v rowset.Value) error {
	idx := ord(rec, nb.slot)
	switch {
	case idx >= 0 && cb.tk.Space.Attr(int(idx)).Kind != KindContinuous:
		setState(c, p, cb.tk.Space.Attr(int(idx)), int(idx), v)
		return nil
	case idx < 0 && p == nil:
		return nil
	case idx < 0: // a valued attribute this range lists: its kind comes from the column
		it := p.list(mint{d: tb.dict, tcol: tcol, ncol: nb.def, slot: nb.slot, key: rowset.FormatValue(kv)})
		if !nb.def.AttrType.IsNumericLike() {
			p.list(mint{text: rowset.FormatValue(v), attr: ^it})
			return nil
		}
	}
	f, ok := rowset.ToFloat(v)
	if !ok {
		return fmt.Errorf("core: nested column %q: non-numeric value %v", nb.def.Name, v)
	}
	if idx >= 0 {
		c.put(int(idx), numCode, f)
	}
	return nil
}

// applyQualifier applies qualifier column col's value v to attribute idx of
// the case; idx < 0 — the qualifier's target is no attribute, e.g. the key —
// lets SUPPORT qualify the case as a whole.
func applyQualifier(c *Case, col *ColumnDef, idx int, v rowset.Value) {
	f, ok := rowset.ToFloat(v)
	if !ok {
		return
	}
	switch {
	case col.Qualifier == QualSupport:
		if f > 0 {
			c.Weight = f
		}
	case col.Qualifier == QualProbability && idx >= 0:
		c.SetProb(idx, min(max(f, 0), 1))
	default:
		// VARIANCE, PROBABILITY_VARIANCE, and ORDER are accepted and
		// recorded nowhere: our reference algorithms do not consume them,
		// matching the paper's "qualifiers are all optional" stance.
	}
}

// bucketOf returns the discretization bucket of f given ascending cuts:
// bucket i covers (cuts[i-1], cuts[i]]; bucket len(cuts) is the overflow. It
// is sort.SearchFloat64s(cuts, the float below f), without a call per step.
func bucketOf(f float64, cuts []float64) int {
	x, i, j := math.Nextafter(f, math.Inf(-1)), 0, len(cuts)
	for i < j {
		if h := int(uint(i+j) >> 1); !(cuts[h] >= x) {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// BucketBounds returns the numeric bounds of discretization bucket i,
// closing the open first/last buckets with the observed Lo/Hi range.
func (a *Attribute) BucketBounds(i int) (lo, hi float64, ok bool) {
	if len(a.Cuts) == 0 || i < 0 || i > len(a.Cuts) {
		return 0, 0, false
	}
	lo, hi = a.Lo, a.Hi
	if i > 0 {
		lo = a.Cuts[i-1]
	}
	if i < len(a.Cuts) {
		hi = a.Cuts[i]
	}
	return lo, hi, true
}

// BucketLabels renders human-readable labels for discretization buckets.
func BucketLabels(cuts []float64) []string {
	labels := make([]string, len(cuts)+1)
	for i := range labels {
		switch {
		case len(cuts) == 0:
			labels[i] = "(-inf, +inf)"
		case i == 0:
			labels[i] = fmt.Sprintf("<= %.4g", cuts[0])
		case i == len(cuts):
			labels[i] = fmt.Sprintf("> %.4g", cuts[len(cuts)-1])
		default:
			labels[i] = fmt.Sprintf("(%.4g, %.4g]", cuts[i-1], cuts[i])
		}
	}
	return labels
}
