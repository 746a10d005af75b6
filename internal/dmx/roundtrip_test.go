package dmx

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/rowset"
)

// roundTripDefs are model definitions that between them use every column
// modifier DDL renders.
func roundTripDefs() []*core.ModelDef {
	return []*core.ModelDef{
		{
			Name: "Simple", Algorithm: "Naive_Bayes",
			Columns: []core.ColumnDef{
				{Name: "ID", DataType: rowset.TypeLong, Content: core.ContentKey},
				{Name: "Class", DataType: rowset.TypeText, Content: core.ContentAttribute,
					AttrType: core.AttrDiscrete, Predict: true},
			},
		},
		{
			Name: "Full Monty", Algorithm: "Decision_Trees",
			Params: map[string]string{"MINIMUM_SUPPORT": "8"},
			Columns: []core.ColumnDef{
				{Name: "Customer ID", DataType: rowset.TypeLong, Content: core.ContentKey},
				{Name: "Gender", DataType: rowset.TypeText, Content: core.ContentAttribute,
					AttrType: core.AttrDiscrete},
				{Name: "Loyalty", DataType: rowset.TypeLong, Content: core.ContentAttribute,
					AttrType: core.AttrOrdered},
				{Name: "Weekday", DataType: rowset.TypeLong, Content: core.ContentAttribute,
					AttrType: core.AttrCyclical},
				{Name: "Income", DataType: rowset.TypeDouble, Content: core.ContentAttribute,
					AttrType: core.AttrDiscretized, DiscretizeMethod: "EQUAL_AREAS",
					DiscretizeBuckets: 6, NotNull: true, Predict: true},
				{Name: "Salary", DataType: rowset.TypeDouble, Content: core.ContentAttribute,
					AttrType: core.AttrContinuous, Distribution: core.DistLogNormal, PredictOnly: true},
				{Name: "Purchases", Content: core.ContentTable, Predict: true,
					DataType: rowset.TypeTable,
					Table: []core.ColumnDef{
						{Name: "Product", DataType: rowset.TypeText, Content: core.ContentKey},
						{Name: "Qty", DataType: rowset.TypeDouble, Content: core.ContentAttribute,
							AttrType: core.AttrContinuous, Distribution: core.DistNormal},
						{Name: "Kind", DataType: rowset.TypeText, Content: core.ContentRelation,
							RelatedTo: "Product"},
					}},
			},
		},
	}
}

// TestDDLRoundTrip checks that core.ModelDef.DDL() output reparses to an
// equivalent definition — the invariant that lets the dmsql shell's \d
// output be fed straight back into a provider.
func TestDDLRoundTrip(t *testing.T) {
	for _, def := range roundTripDefs() {
		if err := def.Validate(); err != nil {
			t.Fatalf("%s: fixture invalid: %v", def.Name, err)
		}
		ddl := def.DDL()
		st, err := Parse(ddl, func(string) bool { return false })
		if err != nil {
			t.Fatalf("%s: reparse of DDL failed: %v\n%s", def.Name, err, ddl)
		}
		got := st.(*CreateModel).Def
		if got.Name != def.Name || got.Algorithm != def.Algorithm {
			t.Errorf("%s: header = %s USING %s", def.Name, got.Name, got.Algorithm)
		}
		if len(got.Params) != len(def.Params) {
			t.Errorf("%s: params = %v want %v", def.Name, got.Params, def.Params)
		}
		for k, v := range def.Params {
			if got.Params[k] != v {
				t.Errorf("%s: param %s = %q want %q", def.Name, k, got.Params[k], v)
			}
		}
		if !columnsEqual(got.Columns, def.Columns) {
			t.Errorf("%s: columns differ after round trip:\nwant %+v\ngot  %+v\nDDL:\n%s",
				def.Name, def.Columns, got.Columns, ddl)
		}
		// The reparsed DDL must itself round-trip to a fixed point.
		if got.DDL() != ddl {
			t.Errorf("%s: DDL not a fixed point:\n%s\nvs\n%s", def.Name, ddl, got.DDL())
		}
	}
}

// columnsEqual compares the fields DDL preserves (everything but the default
// DiscretizeMethod spelling, which DDL normalizes to EQUAL_AREAS).
func columnsEqual(a, b []core.ColumnDef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		normalize := func(c *core.ColumnDef) {
			if c.AttrType == core.AttrDiscretized && c.DiscretizeMethod == "" {
				c.DiscretizeMethod = "EQUAL_AREAS"
			}
		}
		normalize(&x)
		normalize(&y)
		xt, yt := x.Table, y.Table
		x.Table, y.Table = nil, nil
		if !reflect.DeepEqual(x, y) {
			return false
		}
		if !columnsEqual(xt, yt) {
			return false
		}
	}
	return true
}
