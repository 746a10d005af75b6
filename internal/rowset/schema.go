package rowset

import (
	"fmt"
	"strings"
	"unicode/utf8"
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
	index   map[string]int
}

// NewSchema builds a schema from columns. Duplicate names (case-insensitive)
// are an error.
func NewSchema(cols ...Column) (*Schema, error) {
	s := &Schema{Columns: cols, index: make(map[string]int, len(cols))}
	for i, c := range cols {
		key := strings.ToLower(c.Name)
		if _, dup := s.index[key]; dup {
			return nil, fmt.Errorf("rowset: duplicate column %q", c.Name)
		}
		s.index[key] = i
	}
	return s, nil
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
// a column literally named "t.Age" first). An ASCII name of up to 64 bytes is
// lower-cased in a stack buffer, so the lookup does not allocate.
func (s *Schema) Lookup(name string) (int, bool) {
	if i, ok := s.lookup(name); ok {
		return i, true
	}
	if dot := strings.LastIndex(name, "."); dot >= 0 {
		return s.lookup(name[dot+1:])
	}
	return 0, false
}

func (s *Schema) lookup(name string) (int, bool) {
	var buf [64]byte
	if len(name) > len(buf) {
		i, ok := s.index[strings.ToLower(name)]
		return i, ok
	}
	for j := 0; j < len(name); j++ {
		c := name[j]
		if c >= utf8.RuneSelf {
			i, ok := s.index[strings.ToLower(name)]
			return i, ok
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf[j] = c
	}
	i, ok := s.index[string(buf[:len(name)])]
	return i, ok
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
