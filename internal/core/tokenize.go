package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

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

// Frozen reports whether the space is frozen.
func (tk *Tokenizer) Frozen() bool { return tk.frozen }

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
// binding columns by name.
func (tk *Tokenizer) Tokenize(rs *rowset.Rowset) (*Caseset, error) {
	cb, err := tk.NewCaseBinder(BindByName(tk.Def.Columns, rs.Schema()))
	if err != nil {
		return nil, err
	}
	out := &Caseset{Space: tk.Space}
	return out, cb.TokenizeRows(rs.Rows(), &out.Cases)
}

// ColumnSource says where one model column's values are in a source row: the
// ordinal of the source column (-1 when nothing is bound to the model column)
// and, for a TABLE column, the ordinal inside the nested rowset of each of its
// nested columns.
type ColumnSource struct {
	Ord    int
	Nested []int
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
	keyOrd, seqOrd int
	exists         map[string]int32
	// cols are the bound nested columns other than the key, attributes first.
	cols []nestedBinding
}

type nestedBinding struct {
	def *ColumnDef
	ord int
	// keys is the dictionary of the valued attributes an attribute column
	// mints, or of the attributes a qualifier column qualifies.
	keys map[string]int32
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
			if b.table, err = tk.bindTable(c, cols[i].Nested); err != nil {
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

func (tk *Tokenizer) bindTable(c *ColumnDef, ords []int) (*tableBinding, error) {
	tb := &tableBinding{keyOrd: -1, seqOrd: -1}
	// The dictionaries of a published space are complete: a column without
	// one has no attributes to find.
	keysOf := func(column string) map[string]int32 {
		if tk.frozen {
			return tk.Space.nested[nestedColumn{c.Name, column}]
		}
		return tk.Space.nestedKeys(c.Name, column)
	}
	tb.exists = keysOf("")
	var late []nestedBinding
	for j := range c.Table {
		nc := &c.Table[j]
		ord := -1
		if j < len(ords) {
			ord = ords[j]
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
			nb.keys = keysOf(nc.Name)
			tb.cols = append(tb.cols, nb)
		case nc.Content == ContentQualifier:
			// A qualifier of the nested key qualifies the existence
			// attribute; one of a nested attribute, the derived valued one.
			nb.keys = tb.exists
			if t, ok := findColumn(c.Table, nc.QualifierOf); ok && t.Content != ContentKey {
				nb.keys = keysOf(t.Name)
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

// TokenizeRows appends the case of every row to out, in order; on an error,
// out holds the cases of the rows before the failing one. The arena is sized
// first, from the most cells the rows could make: grown by appending, it would
// be reallocated — and copied — a few dozen times on the way. Each case is
// tokenized in the arena's spare room, so the rows allocate nothing past the
// arena's four slices.
func (cb *CaseBinder) TokenizeRows(rows []rowset.Row, out *Cases) error {
	cells := 0
	for _, row := range rows {
		cells += len(cb.cols)
		for i := range cb.cols {
			if tb := cb.cols[i].table; tb != nil {
				if nested, ok := row[cb.cols[i].ord].(*rowset.Rowset); ok {
					cells += nested.Len() * (1 + len(tb.cols))
				}
			}
		}
	}
	out.Cells = slices.Grow(out.Cells, cells)
	out.Ends = slices.Grow(out.Ends, len(rows))
	out.Weights = slices.Grow(out.Weights, len(rows))
	out.Keys = slices.Grow(out.Keys, len(rows))
	var c Case
	for _, row := range rows {
		c.cells = out.Cells[len(out.Cells):]
		if err := cb.TokenizeRow(row, &c); err != nil {
			return err
		}
		out.Append(c)
	}
	return nil
}

// TokenizeRow overwrites c with the case of one source row, reusing c's cell
// buffer: over a frozen tokenizer it allocates nothing once the buffer has
// grown to fit (a SEQUENCE_TIME column's ordered keys excepted).
func (cb *CaseBinder) TokenizeRow(row rowset.Row, c *Case) error {
	tk := cb.tk
	c.reset()
	if cb.keyOrd >= 0 {
		c.Key = row[cb.keyOrd]
	}
	for i := range cb.cols {
		b := &cb.cols[i]
		v := row[b.ord]
		switch b.def.Content {
		case ContentAttribute:
			if err := tk.setScalar(c, b.def, b.attr, v); err != nil {
				return err
			}
		case ContentTable:
			if v == nil {
				continue
			}
			nested, ok := v.(*rowset.Rowset)
			if !ok {
				return &NestedColumnTypeError{Column: b.def.Name, Got: rowset.TypeOf(v).String()}
			}
			if err := tk.tokenizeNested(c, b.def, b.table, nested); err != nil {
				return err
			}
		case ContentQualifier:
			if v != nil {
				applyQualifier(c, b.def, b.attr, v)
			}
		case ContentRelation:
			if v != nil && row[b.relOrd] != nil {
				tk.Space.setRelation(b.related, rowset.FormatValue(row[b.relOrd]), rowset.FormatValue(v))
			}
		}
	}
	return nil
}

// setScalar tokenizes one scalar attribute value into the case.
func (tk *Tokenizer) setScalar(c *Case, col *ColumnDef, idx int, v rowset.Value) error {
	if v == nil {
		if col.NotNull && !tk.frozen {
			return fmt.Errorf("core: column %q is NOT_NULL but the input has a NULL", col.Name)
		}
		return nil
	}
	a := tk.Space.Attr(idx)
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
		tk.setState(c, a, idx, v)
	}
	return nil
}

// setState gives discrete attribute idx the state v names, a new one while
// training; a state unseen at prediction time is a missing value.
func (tk *Tokenizer) setState(c *Case, a *Attribute, idx int, v rowset.Value) {
	st, ok := codeOf(a.stateOf, v)
	if !ok {
		if tk.frozen {
			return
		}
		st = a.addState(rowset.FormatValue(v))
	}
	c.put(idx, st, 0)
}

// tokenizeNested converts a nested table cell into existence and valued
// attributes. When the nested table carries a SEQUENCE_TIME attribute the
// nested keys are also recorded on the case in time order (Case.Sequences),
// preserving the ordering that existence attributes alone discard — the raw
// material for sequence-analysis services.
func (tk *Tokenizer) tokenizeNested(c *Case, tcol *ColumnDef, tb *tableBinding, nested *rowset.Rowset) error {
	type seqEntry struct {
		t   float64
		key string
	}
	var seq []seqEntry
	for _, nrow := range nested.Rows() {
		kv := nrow[tb.keyOrd]
		if kv == nil {
			continue
		}
		if tb.seqOrd >= 0 {
			if ts, ok := rowset.ToFloat(nrow[tb.seqOrd]); ok {
				seq = append(seq, seqEntry{t: ts, key: rowset.FormatValue(kv)})
			}
		}
		ex, ok := codeOf(tb.exists, kv)
		if !ok {
			if tk.frozen {
				continue // unseen nested key at prediction time
			}
			key := rowset.FormatValue(kv)
			ex = int32(tk.Space.Add(Attribute{
				Name:      tcol.Name + "(" + key + ")",
				Column:    tcol.Name,
				NestedKey: key,
				Kind:      KindExistence,
				IsTarget:  tcol.IsOutput(),
				IsInput:   tcol.IsInput(),
			}))
		}
		c.put(int(ex), numCode, 1)

		for j := range tb.cols {
			nb := &tb.cols[j]
			v := nrow[nb.ord]
			if v == nil {
				continue
			}
			switch nb.def.Content {
			case ContentRelation:
				tk.Space.setRelation(tcol.Name, rowset.FormatValue(kv), rowset.FormatValue(v))
			case ContentQualifier:
				if idx, ok := codeOf(nb.keys, kv); ok {
					applyQualifier(c, nb.def, int(idx), v)
				}
			case ContentAttribute:
				if err := tk.setNested(c, tcol, nb, kv, v); err != nil {
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
// row keyed kv, minting the valued attribute the first time training sees the
// (key, column) pair.
func (tk *Tokenizer) setNested(c *Case, tcol *ColumnDef, nb *nestedBinding, kv, v rowset.Value) error {
	ncol := nb.def
	i, ok := codeOf(nb.keys, kv)
	if !ok {
		if tk.frozen {
			return nil
		}
		kind := KindDiscrete
		if ncol.AttrType.IsNumericLike() {
			kind = KindContinuous
		}
		key := rowset.FormatValue(kv)
		i = int32(tk.Space.Add(Attribute{
			Name:         tcol.Name + "(" + key + ")." + ncol.Name,
			Column:       tcol.Name,
			NestedColumn: ncol.Name,
			NestedKey:    key,
			Kind:         kind,
			IsTarget:     tcol.IsOutput() || ncol.IsOutput(),
			IsInput:      tcol.IsInput(),
			Distribution: ncol.Distribution,
		}))
	}
	idx := int(i)
	a := tk.Space.Attr(idx)
	if a.Kind != KindContinuous {
		tk.setState(c, a, idx, v)
		return nil
	}
	f, ok := rowset.ToFloat(v)
	if !ok {
		return fmt.Errorf("core: nested column %q: non-numeric value %v", ncol.Name, v)
	}
	c.put(idx, numCode, f)
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
// bucket i covers (cuts[i-1], cuts[i]]; bucket len(cuts) is the overflow.
func bucketOf(f float64, cuts []float64) int {
	return sort.SearchFloat64s(cuts, math.Nextafter(f, math.Inf(-1)))
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
