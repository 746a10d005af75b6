package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/rowset"
)

// ColumnDef is one column of a mining model definition — the unit of the
// CREATE MINING MODEL statement's column list, carrying the meta-information
// of Section 3.2 of the paper.
type ColumnDef struct {
	Name     string
	DataType rowset.Type
	Content  ContentType

	// Attribute columns only.
	AttrType     AttributeType
	Distribution Distribution
	Predict      bool // PREDICT: both input and output
	PredictOnly  bool // PREDICT_ONLY: output only
	NotNull      bool // NOT_NULL hint
	// ModelExistenceOnly: only the presence of a value matters.
	ModelExistenceOnly bool
	// DiscretizeBuckets is the requested number of DISCRETIZED states
	// (0 = provider default). DiscretizeMethod names the bucketing policy:
	// EQUAL_RANGES, EQUAL_AREAS, or ENTROPY (default EQUAL_AREAS).
	DiscretizeBuckets int
	DiscretizeMethod  string

	// RelatedTo is the classified column for RELATION content.
	RelatedTo string
	// QualifierOf is the qualified attribute for QUALIFIER content; Qualifier
	// says which statistic this column carries.
	QualifierOf string
	Qualifier   QualifierKind

	// Table holds nested columns for TABLE content.
	Table []ColumnDef
}

// IsOutput reports whether the column is a prediction target.
func (c *ColumnDef) IsOutput() bool { return c.Predict || c.PredictOnly }

// IsInput reports whether the column feeds the model as input.
func (c *ColumnDef) IsInput() bool {
	return !c.PredictOnly && c.Content != ContentKey
}

// ModelDef is a parsed, validated CREATE MINING MODEL statement: the model's
// caseset schema plus the algorithm binding.
type ModelDef struct {
	Name      string
	Columns   []ColumnDef
	Algorithm string
	// Params are the algorithm parameters from the USING clause.
	Params map[string]string
}

// Column finds a top-level column by name, case-insensitively.
func (d *ModelDef) Column(name string) (*ColumnDef, bool) {
	for i := range d.Columns {
		if strings.EqualFold(d.Columns[i].Name, name) {
			return &d.Columns[i], true
		}
	}
	return nil, false
}

// OutputColumns returns the names of all prediction targets (scalar and
// nested TABLE targets).
func (d *ModelDef) OutputColumns() []string {
	var out []string
	for i := range d.Columns {
		if d.Columns[i].IsOutput() {
			out = append(out, d.Columns[i].Name)
		}
	}
	return out
}

// Validate checks the structural rules of Section 3.2: key presence,
// RELATED TO and OF targets, qualifier placement, nested-table shape, and
// that at least one column is predictable or the model is a pure
// segmentation/association model (no explicit outputs is allowed — the
// algorithm decides whether that is acceptable).
func (d *ModelDef) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("core: model has no name")
	}
	if d.Algorithm == "" {
		return fmt.Errorf("core: model %s: no algorithm (USING clause)", d.Name)
	}
	if len(d.Columns) == 0 {
		return fmt.Errorf("core: model %s: no columns", d.Name)
	}
	keys := 0
	for i := range d.Columns {
		c := &d.Columns[i]
		if c.Content == ContentKey {
			keys++
		}
		if err := validateColumn(d.Name, c, d.Columns, false); err != nil {
			return err
		}
	}
	if keys != 1 {
		return fmt.Errorf("core: model %s: needs exactly one top-level KEY column, has %d", d.Name, keys)
	}
	return nil
}

func validateColumn(model string, c *ColumnDef, siblings []ColumnDef, nested bool) error {
	where := fmt.Sprintf("core: model %s column %s", model, c.Name)
	if c.Name == "" {
		return fmt.Errorf("core: model %s: column with empty name", model)
	}
	switch c.Content {
	case ContentKey:
		if c.IsOutput() {
			return fmt.Errorf("%s: KEY columns cannot be PREDICT", where)
		}
	case ContentRelation:
		if c.RelatedTo == "" {
			return fmt.Errorf("%s: RELATION requires a RELATED TO target", where)
		}
		if _, ok := findColumn(siblings, c.RelatedTo); !ok {
			return fmt.Errorf("%s: RELATED TO %q names no sibling column", where, c.RelatedTo)
		}
	case ContentQualifier:
		if c.QualifierOf == "" || c.Qualifier == QualNone {
			return fmt.Errorf("%s: QUALIFIER requires a kind and an OF target", where)
		}
		target, ok := findColumn(siblings, c.QualifierOf)
		if !ok {
			return fmt.Errorf("%s: OF %q names no sibling column", where, c.QualifierOf)
		}
		if target.Content != ContentAttribute && target.Content != ContentKey {
			return fmt.Errorf("%s: OF %q must qualify an ATTRIBUTE or KEY column", where, c.QualifierOf)
		}
	case ContentTable:
		if nested {
			return fmt.Errorf("%s: nested tables cannot contain TABLE columns", where)
		}
		if len(c.Table) == 0 {
			return fmt.Errorf("%s: TABLE column has no nested columns", where)
		}
		nestedKeys := 0
		for i := range c.Table {
			nc := &c.Table[i]
			if nc.Content == ContentKey {
				nestedKeys++
			}
			if err := validateColumn(model, nc, c.Table, true); err != nil {
				return err
			}
		}
		if nestedKeys != 1 {
			return fmt.Errorf("%s: nested table needs exactly one KEY column, has %d", where, nestedKeys)
		}
	case ContentAttribute:
		if c.AttrType == AttrDiscretized && c.DataType == rowset.TypeText {
			return fmt.Errorf("%s: DISCRETIZED requires a numeric column", where)
		}
	}
	return nil
}

func findColumn(cols []ColumnDef, name string) (*ColumnDef, bool) {
	for i := range cols {
		if strings.EqualFold(cols[i].Name, name) {
			return &cols[i], true
		}
	}
	return nil, false
}

// DDL renders the model definition back to CREATE MINING MODEL syntax.
// Useful for catalogs, diffing, and the dmsql shell's \d command.
func (d *ModelDef) DDL() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CREATE MINING MODEL [%s] (\n", d.Name)
	writeColumns(&b, d.Columns, "\t")
	fmt.Fprintf(&b, ") USING [%s]", d.Algorithm)
	if len(d.Params) > 0 {
		keys := make([]string, 0, len(d.Params))
		for k := range d.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = fmt.Sprintf("%s = %s", k, d.Params[k])
		}
		fmt.Fprintf(&b, " (%s)", strings.Join(parts, ", "))
	}
	return b.String()
}

func writeColumns(b *strings.Builder, cols []ColumnDef, indent string) {
	for i := range cols {
		c := &cols[i]
		if i > 0 {
			b.WriteString(",\n")
		}
		b.WriteString(indent)
		if c.Content == ContentTable {
			fmt.Fprintf(b, "[%s] TABLE(\n", c.Name)
			writeColumns(b, c.Table, indent+"\t")
			b.WriteString(")")
			if c.IsOutput() {
				b.WriteString(" PREDICT")
			}
			continue
		}
		fmt.Fprintf(b, "[%s] %s", c.Name, c.DataType)
		switch c.Content {
		case ContentKey:
			b.WriteString(" KEY")
		case ContentRelation:
			fmt.Fprintf(b, " DISCRETE RELATED TO [%s]", c.RelatedTo)
		case ContentQualifier:
			fmt.Fprintf(b, " %s OF [%s]", c.Qualifier, c.QualifierOf)
		default:
			if c.Distribution != DistNone {
				fmt.Fprintf(b, " %s", c.Distribution)
			}
			fmt.Fprintf(b, " %s", c.AttrType)
			if c.AttrType == AttrDiscretized && c.DiscretizeBuckets > 0 {
				fmt.Fprintf(b, "(%s, %d)", defaultIfEmpty(c.DiscretizeMethod, "EQUAL_AREAS"), c.DiscretizeBuckets)
			}
			if c.NotNull {
				b.WriteString(" NOT_NULL")
			}
			if c.PredictOnly {
				b.WriteString(" PREDICT_ONLY")
			} else if c.Predict {
				b.WriteString(" PREDICT")
			}
		}
	}
	b.WriteString("\n")
}

func defaultIfEmpty(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
