package core

import (
	"fmt"
	"sort"

	"repro/internal/rowset"
)

// AttributeKind classifies how an attribute's values behave for modeling.
type AttributeKind int

const (
	// KindDiscrete attributes take values from a finite state dictionary.
	KindDiscrete AttributeKind = iota
	// KindContinuous attributes take real values.
	KindContinuous
	// KindExistence attributes are binary "row with this nested key is
	// present" attributes derived from nested tables (the tokenized form of
	// a market-basket column).
	KindExistence
)

func (k AttributeKind) String() string {
	switch k {
	case KindDiscrete:
		return "DISCRETE"
	case KindContinuous:
		return "CONTINUOUS"
	case KindExistence:
		return "EXISTENCE"
	}
	return fmt.Sprintf("AttributeKind(%d)", int(k))
}

// Attribute is one dimension of the tokenized case space. Scalar model
// columns map to one attribute each; a nested TABLE column maps to one
// existence attribute per distinct nested key value (plus one valued
// attribute per non-key nested column per key value).
type Attribute struct {
	// Name is the display name, e.g. "Gender",
	// "Product Purchases(TV)" for an existence attribute, or
	// "Product Purchases(TV).Quantity" for a nested valued attribute.
	Name string
	// Column is the top-level model column this attribute derives from.
	Column string
	// NestedColumn is the nested column (for nested valued attributes).
	NestedColumn string
	// NestedKey is the nested key value for table-derived attributes.
	NestedKey string
	Kind      AttributeKind
	// IsTarget marks prediction targets.
	IsTarget bool
	// InputOnly marks attributes that must not be predicted (non-PREDICT
	// inputs); target-only attributes have IsTarget and not IsInput.
	IsInput bool
	// States is the value dictionary for discrete attributes, in first-seen
	// order. Existence attributes have implicit states {absent, present}.
	States []string
	// stateOf inverts States. Only addState and indexStates write it, and a
	// space is fully indexed before it is published, so concurrent
	// predictions only ever read it.
	stateOf map[string]int32
	// Cuts are discretization boundaries for DISCRETIZED attributes,
	// filled in by the training pipeline; len(Cuts)+1 buckets. Lo and Hi
	// record the observed value range so the RangeMin/RangeMid/RangeMax
	// prediction functions can bound the open-ended buckets.
	Cuts   []float64
	Lo, Hi float64
	// Distribution carries the column's distribution hint.
	Distribution Distribution
}

// StateIndex returns the index of state s in the dictionary, or -1.
func (a *Attribute) StateIndex(s string) int {
	if i, ok := a.stateOf[s]; ok {
		return int(i)
	}
	return -1
}

// addState appends a new state and returns its index.
func (a *Attribute) addState(s string) int32 {
	a.States = append(a.States, s)
	a.stateOf[s] = int32(len(a.States) - 1)
	return int32(len(a.States) - 1)
}

// indexStates rebuilds the dictionary from States; of two equal labels the
// first keeps the name.
func (a *Attribute) indexStates() {
	a.stateOf = make(map[string]int32, len(a.States))
	for i := len(a.States) - 1; i >= 0; i-- {
		a.stateOf[a.States[i]] = int32(i)
	}
}

// codeOf looks v up in a dictionary keyed by display text (FormatValue). A
// value that is not already a string is formatted into a stack buffer, so the
// probe does not allocate.
func codeOf(dict map[string]int32, v rowset.Value) (int32, bool) {
	if s, ok := v.(string); ok {
		i, ok := dict[s]
		return i, ok
	}
	var buf [40]byte
	i, ok := dict[string(rowset.AppendFormat(buf[:0], v))]
	return i, ok
}

// AttributeSpace is the tokenized schema of a model: the full list of
// attributes plus the relations (RELATED TO hierarchies) discovered while
// tokenizing. The space is built during training and reused, frozen, at
// prediction time so attribute indexes remain stable.
type AttributeSpace struct {
	Attrs  []Attribute
	byName map[string]int
	// nested holds one dictionary per TABLE column (existence attributes)
	// and per nested attribute column of it (valued attributes), from nested
	// key to attribute ordinal: what a nested row costs to tokenize is a map
	// probe per column, not a name built and hashed.
	nested map[nestedColumn]map[string]int32
	// Relations maps "column\x00keyValue" to the relation value, e.g.
	// Product Purchases/"Ham" -> "Food".
	Relations map[string]string
}

// nestedColumn names a nested-key dictionary: a TABLE column and, for valued
// attributes, the nested attribute column ("" for existence attributes).
type nestedColumn struct{ table, column string }

// NewAttributeSpace returns an empty space.
func NewAttributeSpace() *AttributeSpace {
	s := &AttributeSpace{}
	s.Reindex()
	return s
}

// Add appends an attribute and returns its index. Duplicate names return the
// existing index.
func (s *AttributeSpace) Add(a Attribute) int {
	if i, ok := s.byName[a.Name]; ok {
		return i
	}
	s.Attrs = append(s.Attrs, a)
	i := len(s.Attrs) - 1
	s.index(i)
	return i
}

// index enters attribute i into the name index, its nested-key dictionary
// and its own state dictionary.
func (s *AttributeSpace) index(i int) {
	a := &s.Attrs[i]
	s.byName[a.Name] = i
	if a.Name != a.Column { // derived from a nested row
		s.nestedKeys(a.Column, a.NestedColumn)[a.NestedKey] = int32(i)
	}
	a.indexStates()
}

// nestedKeys returns the nested-key dictionary of a TABLE column's existence
// attributes (column "") or of one of its valued attribute columns, making
// it if need be — so not to be called on a published space.
func (s *AttributeSpace) nestedKeys(table, column string) map[string]int32 {
	k := nestedColumn{table, column}
	if s.nested[k] == nil {
		s.nested[k] = make(map[string]int32)
	}
	return s.nested[k]
}

// Lookup returns the index of the named attribute.
func (s *AttributeSpace) Lookup(name string) (int, bool) {
	i, ok := s.byName[name]
	return i, ok
}

// Len returns the number of attributes.
func (s *AttributeSpace) Len() int { return len(s.Attrs) }

// Attr returns the attribute at index i.
func (s *AttributeSpace) Attr(i int) *Attribute { return &s.Attrs[i] }

// Targets returns the indexes of all prediction-target attributes.
func (s *AttributeSpace) Targets() []int {
	var out []int
	for i := range s.Attrs {
		if s.Attrs[i].IsTarget {
			out = append(out, i)
		}
	}
	return out
}

// TableAttrs returns the indexes of existence attributes derived from the
// named TABLE column, sorted by nested key for deterministic iteration.
func (s *AttributeSpace) TableAttrs(column string) []int {
	var out []int
	for i := range s.Attrs {
		a := &s.Attrs[i]
		if a.Kind == KindExistence && a.Column == column {
			out = append(out, i)
		}
	}
	sort.Slice(out, func(x, y int) bool {
		return s.Attrs[out[x]].NestedKey < s.Attrs[out[y]].NestedKey
	})
	return out
}

// Relation returns the RELATED TO value recorded for a nested key of a
// column ("Ham" in "Product Purchases" -> "Food").
func (s *AttributeSpace) Relation(column, key string) (string, bool) {
	v, ok := s.Relations[column+"\x00"+key]
	return v, ok
}

func (s *AttributeSpace) setRelation(column, key, value string) {
	s.Relations[column+"\x00"+key] = value
}

// Clone deep-copies the space: attributes (including their state
// dictionaries and cut points), the indexes, and the relation map. The
// copy-on-write training path clones the published space before growing it,
// so concurrent predictions keep reading the old snapshot untouched.
func (s *AttributeSpace) Clone() *AttributeSpace {
	out := &AttributeSpace{
		Attrs:     make([]Attribute, len(s.Attrs)),
		Relations: make(map[string]string, len(s.Relations)),
	}
	copy(out.Attrs, s.Attrs)
	for i := range out.Attrs {
		a := &out.Attrs[i]
		a.States = append([]string(nil), a.States...)
		a.Cuts = append([]float64(nil), a.Cuts...)
	}
	for k, v := range s.Relations {
		out.Relations[k] = v
	}
	out.Reindex()
	return out
}

// Reindex rebuilds every index and dictionary from Attrs — all a decoded
// space arrives with. It must run before the space is shared.
func (s *AttributeSpace) Reindex() {
	s.byName = make(map[string]int, len(s.Attrs))
	s.nested = make(map[nestedColumn]map[string]int32)
	for i := range s.Attrs {
		s.index(i)
	}
	if s.Relations == nil {
		s.Relations = make(map[string]string)
	}
}
