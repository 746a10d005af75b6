package sem

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dmx"
	"repro/internal/rowset"
)

// fakeCatalog is a static Catalog for binder tests.
type fakeCatalog struct {
	models map[string]*core.ModelDef
	tables map[string]*rowset.Schema
}

func (f *fakeCatalog) ModelDef(name string) (*core.ModelDef, error) {
	d, ok := f.models[strings.ToLower(name)]
	if !ok {
		return nil, &core.NotFoundError{Kind: "mining model", Name: name}
	}
	return d, nil
}

func (f *fakeCatalog) TableSchema(name string) (*rowset.Schema, error) {
	s, ok := f.tables[strings.ToLower(name)]
	if !ok {
		return nil, &core.NotFoundError{Kind: "table", Name: name}
	}
	return s, nil
}

// testCatalog builds the catalog used throughout: a [CreditRisk] model over a
// [People] source table plus a nested-table [Buyers] model over [Sales].
func testCatalog(t *testing.T) *fakeCatalog {
	t.Helper()
	credit := &core.ModelDef{
		Name:      "CreditRisk",
		Algorithm: "Decision_Trees",
		Columns: []core.ColumnDef{
			{Name: "CustID", DataType: rowset.TypeLong, Content: core.ContentKey},
			{Name: "Age", DataType: rowset.TypeLong, Content: core.ContentAttribute, AttrType: core.AttrContinuous},
			{Name: "Income", DataType: rowset.TypeDouble, Content: core.ContentAttribute, AttrType: core.AttrContinuous},
			{Name: "Risk", DataType: rowset.TypeText, Content: core.ContentAttribute, AttrType: core.AttrDiscrete, Predict: true},
		},
	}
	buyers := &core.ModelDef{
		Name:      "Buyers",
		Algorithm: "Association_Rules",
		Columns: []core.ColumnDef{
			{Name: "TxnID", DataType: rowset.TypeLong, Content: core.ContentKey},
			{Name: "Purchases", Content: core.ContentTable, Predict: true, Table: []core.ColumnDef{
				{Name: "Product", DataType: rowset.TypeText, Content: core.ContentKey},
				{Name: "Qty", DataType: rowset.TypeLong, Content: core.ContentAttribute, AttrType: core.AttrContinuous},
			}},
		},
	}
	if err := credit.Validate(); err != nil {
		t.Fatalf("credit def: %v", err)
	}
	if err := buyers.Validate(); err != nil {
		t.Fatalf("buyers def: %v", err)
	}
	people := rowset.MustSchema(
		rowset.Column{Name: "CustID", Type: rowset.TypeLong},
		rowset.Column{Name: "Age", Type: rowset.TypeLong},
		rowset.Column{Name: "Income", Type: rowset.TypeDouble},
		rowset.Column{Name: "Name", Type: rowset.TypeText},
	)
	return &fakeCatalog{
		models: map[string]*core.ModelDef{"creditrisk": credit, "buyers": buyers},
		tables: map[string]*rowset.Schema{"people": people},
	}
}

// parse parses src as DMX, treating every known model name as a model.
func parse(t *testing.T, src string) dmx.Statement {
	t.Helper()
	st, err := dmx.Parse(src, func(name string) bool {
		switch strings.ToLower(name) {
		case "creditrisk", "buyers", "nosuchmodel":
			return true
		}
		return false
	})
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	if st == nil {
		t.Fatalf("parse %q: not recognized as DMX", src)
	}
	return st
}

func TestCheck(t *testing.T) {
	cat := testCatalog(t)
	tests := []struct {
		name string
		src  string
		// want is a substring each expected diagnostic must contain, in
		// order; the "line:col:" prefix is part of the assertion. Empty means
		// the statement must bind cleanly.
		want []string
	}{
		{
			name: "clean prediction join",
			src: "SELECT t.CustID, Predict(Risk), PredictProbability(Risk) " +
				"FROM CreditRisk PREDICTION JOIN (SELECT CustID, Age, Income FROM People) AS t " +
				"ON CreditRisk.Age = t.Age AND CreditRisk.Income = t.Income",
		},
		{
			name: "clean natural join with where and order",
			src: "SELECT CustID, Risk FROM CreditRisk NATURAL PREDICTION JOIN " +
				"(SELECT * FROM People) AS t WHERE t.Age > 30 ORDER BY PredictProbability(Risk) DESC",
		},
		{
			name: "group by and having on a prediction join",
			src: "SELECT Predict(Risk) FROM CreditRisk NATURAL PREDICTION JOIN (SELECT * FROM People) AS t " +
				"GROUP BY t.Age HAVING t.Age > 1",
			want: []string{
				"1:99: GROUP BY is not supported on a PREDICTION JOIN",
				"1:112: HAVING is not supported on a PREDICTION JOIN",
			},
		},
		{
			name: "aggregate on a prediction join",
			src:  "SELECT COUNT(*) FROM CreditRisk NATURAL PREDICTION JOIN (SELECT * FROM People) AS t",
			want: []string{"1:8: aggregate COUNT is not supported on a PREDICTION JOIN"},
		},
		{
			name: "unknown model",
			src:  "SELECT Predict(Risk) FROM NoSuchModel NATURAL PREDICTION JOIN (SELECT * FROM People) AS t",
			want: []string{`1:27: unknown mining model "NoSuchModel"`},
		},
		{
			name: "unknown column in model",
			src: "SELECT Predict(Salary) FROM CreditRisk NATURAL PREDICTION JOIN " +
				"(SELECT * FROM People) AS t",
			want: []string{`1:16: unknown column "Salary" in model CreditRisk`},
		},
		{
			name: "unknown qualified model column",
			src: "SELECT CreditRisk.Salary FROM CreditRisk NATURAL PREDICTION JOIN " +
				"(SELECT * FROM People) AS t",
			want: []string{`1:8: unknown column "Salary" in model CreditRisk`},
		},
		{
			name: "unknown bare column",
			src: "SELECT Bogus FROM CreditRisk NATURAL PREDICTION JOIN " +
				"(SELECT * FROM People) AS t",
			want: []string{`1:8: unknown column "Bogus"`},
		},
		{
			name: "table column as scalar argument",
			src: "SELECT PredictProbability(Purchases) FROM Buyers NATURAL PREDICTION JOIN " +
				"(SELECT * FROM People) AS t",
			want: []string{`1:27: PREDICTPROBABILITY: column "Purchases" of model Buyers is a TABLE column; a scalar column is required`},
		},
		{
			name: "arity error",
			src: "SELECT PredictSupport(Risk, 2) FROM CreditRisk NATURAL PREDICTION JOIN " +
				"(SELECT * FROM People) AS t",
			want: []string{`1:8: PREDICTSUPPORT takes 1 argument, got 2`},
		},
		{
			name: "topcount arity",
			src: "SELECT TopCount(Predict(Purchases)) FROM Buyers NATURAL PREDICTION JOIN " +
				"(SELECT * FROM People) AS t",
			want: []string{`1:8: TOPCOUNT takes 3 arguments, got 1`},
		},
		{
			name: "row limit on scalar predict",
			src: "SELECT Predict(Risk, 5) FROM CreditRisk NATURAL PREDICTION JOIN " +
				"(SELECT * FROM People) AS t",
			want: []string{`1:8: PREDICT: the row-limit argument applies only to TABLE columns`},
		},
		{
			name: "non-column prediction argument",
			src: "SELECT Predict(1 + 2) FROM CreditRisk NATURAL PREDICTION JOIN " +
				"(SELECT * FROM People) AS t",
			want: []string{`1:8: PREDICT: first argument must be a model column reference`},
		},
		{
			name: "on clause type mismatch",
			src: "SELECT Predict(Risk) FROM CreditRisk PREDICTION JOIN " +
				"(SELECT CustID, Name AS Age FROM People) AS t ON CreditRisk.Age = t.Age",
			want: []string{`incompatible types`},
		},
		{
			name: "on clause unknown model column",
			src: "SELECT Predict(Risk) FROM CreditRisk PREDICTION JOIN " +
				"(SELECT * FROM People) AS t ON CreditRisk.Shoe = t.Age",
			want: []string{`unknown column "Shoe" in model CreditRisk`},
		},
		{
			name: "on clause name mismatch",
			src: "SELECT Predict(Risk) FROM CreditRisk PREDICTION JOIN " +
				"(SELECT * FROM People) AS t ON CreditRisk.Age = t.Income",
			want: []string{`differently-named source column`},
		},
		{
			name: "on clause without model reference",
			src: "SELECT Predict(Risk) FROM CreditRisk PREDICTION JOIN " +
				"(SELECT * FROM People) AS t ON t.Age = t.Income",
			want: []string{`does not reference model "CreditRisk"`},
		},
		{
			name: "multiple diagnostics in source order",
			src: "SELECT Predict(Salary), PredictSupport(Risk, 2) FROM CreditRisk NATURAL PREDICTION JOIN " +
				"(SELECT * FROM People) AS t",
			want: []string{
				`unknown column "Salary" in model CreditRisk`,
				`PREDICTSUPPORT takes 1 argument, got 2`,
			},
		},
		{
			name: "insert into unknown model",
			src:  "INSERT INTO MINING MODEL NoSuchModel (CustID, Age) SELECT CustID, Age FROM People",
			want: []string{`1:26: unknown mining model "NoSuchModel"`},
		},
		{
			name: "insert binding names unknown model column",
			src:  "INSERT INTO CreditRisk (CustID, Salary) SELECT CustID, Age FROM People",
			want: []string{`1:33: unknown column "Salary" in model CreditRisk`},
		},
		{
			name: "clean insert with positional skip",
			src:  "INSERT INTO CreditRisk (CustID, Age, Income, SKIP) SELECT CustID, Age, Income, Name FROM People",
		},
		{
			name: "clean insert by name",
			src:  "INSERT INTO CreditRisk (CustID, Age, Income) SELECT CustID, Age, Income FROM People",
		},
		{
			name: "opaque source skips source checks",
			src: "SELECT Predict(Risk) FROM CreditRisk NATURAL PREDICTION JOIN " +
				"(SELECT UPPER(Name) FROM People) AS t WHERE t.Whatever = 1",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			st := parse(t, tt.src)
			err := Check(st, cat)
			if len(tt.want) == 0 {
				if err != nil {
					t.Fatalf("Check(%q) = %v, want clean", tt.src, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Check(%q) = nil, want diagnostics %q", tt.src, tt.want)
			}
			diags, ok := err.(Diagnostics)
			if !ok {
				t.Fatalf("Check(%q) returned %T, want Diagnostics", tt.src, err)
			}
			if len(diags) != len(tt.want) {
				t.Fatalf("Check(%q) = %d diagnostics (%v), want %d", tt.src, len(diags), diags, len(tt.want))
			}
			for i, w := range tt.want {
				if got := diags[i].Error(); !strings.Contains(got, w) {
					t.Errorf("diagnostic %d = %q, want substring %q", i, got, w)
				}
			}
		})
	}
}

// TestDiagnosticPosition pins the exact line:col rendering across lines.
func TestDiagnosticPosition(t *testing.T) {
	cat := testCatalog(t)
	src := "SELECT t.CustID,\n" +
		"       Predict(Salary)\n" +
		"FROM CreditRisk NATURAL PREDICTION JOIN (SELECT * FROM People) AS t"
	err := Check(parse(t, src), cat)
	if err == nil {
		t.Fatal("want a diagnostic, got none")
	}
	const want = `2:16: unknown column "Salary" in model CreditRisk`
	if got := err.Error(); got != want {
		t.Errorf("Check = %q, want %q", got, want)
	}
}
