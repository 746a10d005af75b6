package rowset

import (
	"fmt"
	"slices"
	"strings"
)

// Row is one record: one Value per schema column.
type Row []Value

// Clone returns a shallow copy of the row (nested *Rowset values are shared).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Rowset is a materialized, ordered collection of rows sharing a schema.
// It is the unit of data exchange across the provider: SQL query results,
// SHAPE output, prediction-join output, and schema rowsets are all Rowsets.
type Rowset struct {
	schema *Schema
	rows   []Row
}

// New creates an empty rowset with the given schema.
func New(schema *Schema) *Rowset {
	return &Rowset{schema: schema}
}

// Adopt creates a rowset that shares rows as-is — no copy, no arity check,
// no normalization. It is for producers whose rows are already canonical
// (storage snapshots, executor output): the streaming counterpart of FromRows
// when validation would only repeat work already done upstream.
func Adopt(schema *Schema, rows []Row) *Rowset {
	return &Rowset{schema: schema, rows: rows}
}

// FromRows creates a rowset from pre-built rows. Rows are validated for
// arity; values are normalized to canonical dynamic types.
func FromRows(schema *Schema, rows []Row) (*Rowset, error) {
	rs := New(schema)
	for _, r := range rows {
		if err := rs.Append(r); err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// Schema returns the rowset's schema.
func (rs *Rowset) Schema() *Schema { return rs.schema }

// Len returns the number of rows.
func (rs *Rowset) Len() int { return len(rs.rows) }

// Row returns row i. The caller must not mutate it.
func (rs *Rowset) Row(i int) Row { return rs.rows[i] }

// Rows returns the backing slice of rows; callers must treat it as read-only.
func (rs *Rowset) Rows() []Row { return rs.rows }

// Groups holds a nested TABLE column apart from the rows it belongs to: the
// nested rows of row i are Base[p] for p in Pos[lo:hi], where lo, hi =
// Bounds(i), and nested column k is column Cols[k] of a Base row (Cols nil:
// the Base row's own layout). Base is shared with whoever produced it — a
// table snapshot, a query's output — and read-only; Pos and Ends hold no
// pointers, so the collector never scans them.
type Groups struct {
	Base []Row
	Cols []int
	// Pos lists positions in Base, grouped by row; Ends[i] closes row i's
	// group.
	Pos, Ends []int32
}

// Bounds returns where row i's group is in Pos.
func (g *Groups) Bounds(i int) (lo, hi int) {
	if i > 0 {
		lo = int(g.Ends[i-1])
	}
	return lo, int(g.Ends[i])
}

// Append adds a row after normalizing values and checking arity.
func (rs *Rowset) Append(r Row) error {
	if len(r) != rs.schema.Len() {
		return fmt.Errorf("rowset: row has %d values, schema has %d columns", len(r), rs.schema.Len())
	}
	norm := make(Row, len(r))
	for i, v := range r {
		norm[i] = Normalize(v)
	}
	rs.rows = append(rs.rows, norm)
	return nil
}

// AppendVals is Append over a variadic value list, saving callers the
// Row conversion when assembling rows cell by cell.
func (rs *Rowset) AppendVals(vals ...Value) error {
	return rs.Append(Row(vals))
}

// Value returns the cell at (row, named column).
func (rs *Rowset) Value(row int, col string) (Value, error) {
	i, ok := rs.schema.Lookup(col)
	if !ok {
		return nil, fmt.Errorf("rowset: unknown column %q", col)
	}
	return rs.rows[row][i], nil
}

// Sort orders rows by the given column ordinals; desc[i] flips ordinal i.
// The sort is stable. Single-ordinal sorts — the overwhelmingly common
// ORDER BY shape — take a comparator with no inner loop.
func (rs *Rowset) Sort(ords []int, desc []bool) {
	if len(ords) == 1 {
		o := ords[0]
		if len(desc) > 0 && desc[0] {
			slices.SortStableFunc(rs.rows, func(a, b Row) int { return Compare(b[o], a[o]) })
		} else {
			slices.SortStableFunc(rs.rows, func(a, b Row) int { return Compare(a[o], b[o]) })
		}
		return
	}
	slices.SortStableFunc(rs.rows, func(a, b Row) int {
		for k, o := range ords {
			c := Compare(a[o], b[o])
			if c == 0 {
				continue
			}
			if k < len(desc) && desc[k] {
				return -c
			}
			return c
		}
		return 0
	})
}

// Clone returns a deep copy of the rowset structure. Scalar values are
// immutable and shared; nested rowsets are cloned recursively.
func (rs *Rowset) Clone() *Rowset {
	out := New(rs.schema)
	out.rows = make([]Row, len(rs.rows))
	for i, r := range rs.rows {
		nr := r.Clone()
		for j, v := range nr {
			if nested, ok := v.(*Rowset); ok {
				nr[j] = nested.Clone()
			}
		}
		out.rows[i] = nr
	}
	return out
}

// FlatWidth returns the total number of scalar cells in the rowset, counting
// nested tables recursively. Used by the experiments to quantify the size of
// hierarchical vs flattened representations.
func (rs *Rowset) FlatWidth() int {
	n := 0
	for _, r := range rs.rows {
		for _, v := range r {
			if nested, ok := v.(*Rowset); ok {
				n += nested.FlatWidth()
			} else {
				n++
			}
		}
	}
	return n
}

// String renders the rowset as an aligned text table; nested tables render
// inline in brace-delimited compact form. Intended for the shell and tests.
func (rs *Rowset) String() string {
	var b strings.Builder
	names := rs.schema.Names()
	widths := make([]int, len(names))
	cells := make([][]string, rs.Len())
	for i, n := range names {
		widths[i] = len(n)
	}
	for i, r := range rs.rows {
		cells[i] = make([]string, len(r))
		for j, v := range r {
			s := formatCell(v)
			cells[i][j] = s
			if len(s) > widths[j] {
				widths[j] = len(s)
			}
		}
	}
	writeRow := func(vals []string) {
		for j, s := range vals {
			if j > 0 {
				b.WriteString("  ")
			}
			b.WriteString(s)
			b.WriteString(strings.Repeat(" ", widths[j]-len(s)))
		}
		b.WriteByte('\n')
	}
	writeRow(names)
	sep := make([]string, len(names))
	for j := range sep {
		sep[j] = strings.Repeat("-", widths[j])
	}
	writeRow(sep)
	for _, row := range cells {
		writeRow(row)
	}
	return b.String()
}

// FormatNested renders a nested rowset in the compact single-line brace form
// used by String: {(v, v) (v, v)}. Consumers without a nested-table concept
// (database/sql, CSV export) use it to flatten TABLE cells.
func FormatNested(rs *Rowset) string { return formatCell(rs) }

func formatCell(v Value) string {
	nested, ok := v.(*Rowset)
	if !ok {
		return FormatValue(v)
	}
	parts := make([]string, nested.Len())
	for i, r := range nested.Rows() {
		vals := make([]string, len(r))
		for j, nv := range r {
			vals[j] = formatCell(nv)
		}
		parts[i] = "(" + strings.Join(vals, ", ") + ")"
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// Iterator yields rows one at a time. Streaming operators accept an Iterator
// so large intermediate results need not be materialized.
type Iterator interface {
	// Next returns the next row, or (nil, nil) at end of stream.
	Next() (Row, error)
	// Schema describes the rows produced.
	Schema() *Schema
}

// Cursor is the pull-based (Volcano-style) row stream the executor pipelines
// are built from: an Iterator whose resources can be released early. Close
// must be safe to call more than once and after exhaustion; a consumer that
// stops pulling before end-of-stream (TOP, an error in a downstream operator)
// must still Close the cursor so upstream operators can release state.
//
// Rows yielded by a Cursor are owned by the producer: consumers must not
// mutate them, and must not assume a row stays valid after the next Next call
// unless the producer documents otherwise. Every producer in this module
// yields immutable rows that remain valid indefinitely.
type Cursor interface {
	Iterator
	// Close releases the cursor's resources. It is idempotent.
	Close() error
}

// Cursor returns a Cursor over the materialized rowset — the adapter that
// lets fully-built rowsets (wire results, schema rowsets, tests) flow into
// streaming operators.
func (rs *Rowset) Cursor() Cursor { return &sliceIter{rs: rs} }

type sliceIter struct {
	rs *Rowset
	i  int
}

func (it *sliceIter) Next() (Row, error) {
	if it.i >= it.rs.Len() {
		return nil, nil
	}
	r := it.rs.Row(it.i)
	it.i++
	return r, nil
}

func (it *sliceIter) Schema() *Schema { return it.rs.schema }

func (it *sliceIter) Close() error {
	it.i = it.rs.Len()
	return nil
}
