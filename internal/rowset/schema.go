package rowset

import (
	"fmt"
	"strings"

	"repro/internal/lex"
)

// Column describes one column of a rowset. For TypeTable columns, Nested
// holds the schema of the nested rowset carried in each cell.
type Column struct {
	Name   string
	Type   Type
	Nested *Schema // non-nil only when Type == TypeTable
}

// String renders the column as it would appear in a CREATE statement.
func (c Column) String() string {
	if c.Type == TypeTable && c.Nested != nil {
		inner := make([]string, len(c.Nested.Columns))
		for i, nc := range c.Nested.Columns {
			inner[i] = nc.String()
		}
		return fmt.Sprintf("[%s] TABLE(%s)", c.Name, strings.Join(inner, ", "))
	}
	return fmt.Sprintf("[%s] %s", c.Name, c.Type)
}

// Schema is an ordered list of columns with case-insensitive name lookup,
// matching SQL identifier semantics.
type Schema struct {
	Columns []Column
	// byHash maps each name's lex.FoldHash to its ordinal, so building a
	// schema allocates no lower-cased names. A distinct name whose hash an
	// earlier column already holds — a 64-bit collision — is left out of the
	// map and found by scanning.
	byHash map[uint64]int
}

// NewSchema builds a schema from columns. Duplicate names (case-insensitive)
// are an error.
func NewSchema(cols ...Column) (*Schema, error) {
	s := &Schema{Columns: cols, byHash: make(map[uint64]int, len(cols))}
	for i, c := range cols {
		h := lex.FoldHash(c.Name)
		if _, taken := s.byHash[h]; !taken {
			s.byHash[h] = i
		} else if _, dup := s.scan(c.Name, i); dup {
			return nil, fmt.Errorf("rowset: duplicate column %q", c.Name)
		}
	}
	return s, nil
}

// find returns the ordinal of the named column, case-insensitively.
func (s *Schema) find(name string) (int, bool) {
	i, ok := s.byHash[lex.FoldHash(name)]
	if !ok {
		return 0, false
	}
	if lex.FoldEqual(s.Columns[i].Name, name) {
		return i, true
	}
	return s.scan(name, len(s.Columns))
}

// scan returns the ordinal of the column among the first n named name.
func (s *Schema) scan(name string, n int) (int, bool) {
	for i, c := range s.Columns[:n] {
		if lex.FoldEqual(c.Name, name) {
			return i, true
		}
	}
	return 0, false
}

// MustSchema is NewSchema that panics on error. It exists for schema
// literals whose column lists are fixed at compile time: the only failure
// mode is a duplicate column name in the literal itself, which is a
// programming error no caller can meaningfully handle.
//
//dmlint:allow nopanic — schema literals are compile-time-fixed; a duplicate column name is a programming error, not runtime input.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Columns) }

// Lookup returns the ordinal of the named column, case-insensitively.
// It also accepts qualified names ("t.Age" matches column "Age", and matches
// a column literally named "t.Age" first). An ASCII name is hashed and
// compared in place, so the lookup does not allocate.
func (s *Schema) Lookup(name string) (int, bool) {
	if i, ok := s.find(name); ok {
		return i, true
	}
	if dot := strings.LastIndex(name, "."); dot >= 0 {
		return s.find(name[dot+1:])
	}
	return 0, false
}

// Column returns the column at ordinal i.
func (s *Schema) Column(i int) Column { return s.Columns[i] }

// Names returns the column names in order.
func (s *Schema) Names() []string {
	names := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		names[i] = c.Name
	}
	return names
}

// Equal reports structural equality of two schemas (names case-insensitive,
// types exact, nested schemas recursively).
func (s *Schema) Equal(o *Schema) bool {
	if s.Len() != o.Len() {
		return false
	}
	for i, c := range s.Columns {
		oc := o.Columns[i]
		if !strings.EqualFold(c.Name, oc.Name) || c.Type != oc.Type {
			return false
		}
		if c.Type == TypeTable {
			if (c.Nested == nil) != (oc.Nested == nil) {
				return false
			}
			if c.Nested != nil && !c.Nested.Equal(oc.Nested) {
				return false
			}
		}
	}
	return true
}

// Project returns a new schema consisting of the named columns, with their
// ordinals in the source schema. Unknown names are an error.
func (s *Schema) Project(names []string) (*Schema, []int, error) {
	cols := make([]Column, 0, len(names))
	ords := make([]int, 0, len(names))
	for _, n := range names {
		i, ok := s.Lookup(n)
		if !ok {
			return nil, nil, fmt.Errorf("rowset: unknown column %q", n)
		}
		cols = append(cols, s.Columns[i])
		ords = append(ords, i)
	}
	out, err := NewSchema(cols...)
	if err != nil {
		return nil, nil, err
	}
	return out, ords, nil
}

// String renders the schema as a parenthesized column list.
func (s *Schema) String() string {
	parts := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		parts[i] = c.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
