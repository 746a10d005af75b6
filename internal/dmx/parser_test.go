package dmx

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rowset"
	"repro/internal/sqlengine"
)

func isModelNamed(names ...string) func(string) bool {
	return func(n string) bool {
		for _, m := range names {
			if strings.EqualFold(m, n) {
				return true
			}
		}
		return false
	}
}

// paperCreate is the CREATE statement printed verbatim in Section 3.2 of the
// paper (comments included).
const paperCreate = `CREATE MINING MODEL [Age Prediction] (
	%Name of Model
	[Customer ID] LONG KEY,
	[Gender] TEXT DISCRETE,
	[Age] DOUBLE DISCRETIZED PREDICT, %prediction column
	[Product Purchases] TABLE(
		[Product Name] TEXT KEY,
		[Quantity] DOUBLE NORMAL CONTINUOUS,
		[Product Type] TEXT DISCRETE RELATED TO [Product Name]
	)
) USING [Decision_Trees_101] %Mining Algorithm used`

func TestParsePaperCreate(t *testing.T) {
	st, err := Parse(paperCreate, isModelNamed())
	if err != nil {
		t.Fatal(err)
	}
	cm, ok := st.(*CreateModel)
	if !ok {
		t.Fatalf("got %T", st)
	}
	def := cm.Def
	if def.Name != "Age Prediction" || def.Algorithm != "Decision_Trees_101" {
		t.Errorf("def = %s USING %s", def.Name, def.Algorithm)
	}
	if len(def.Columns) != 4 {
		t.Fatalf("columns = %d", len(def.Columns))
	}
	key := def.Columns[0]
	if key.Content != core.ContentKey || key.DataType != rowset.TypeLong {
		t.Errorf("key column = %+v", key)
	}
	age := def.Columns[2]
	if age.AttrType != core.AttrDiscretized || !age.Predict {
		t.Errorf("age column = %+v", age)
	}
	table := def.Columns[3]
	if table.Content != core.ContentTable || len(table.Table) != 3 {
		t.Fatalf("table column = %+v", table)
	}
	qty := table.Table[1]
	if qty.Distribution != core.DistNormal || qty.AttrType != core.AttrContinuous {
		t.Errorf("quantity = %+v", qty)
	}
	rel := table.Table[2]
	if rel.Content != core.ContentRelation || rel.RelatedTo != "Product Name" {
		t.Errorf("relation = %+v", rel)
	}
}

func TestParseCreateWithParamsAndQualifiers(t *testing.T) {
	src := `CREATE MINING MODEL [m] (
		[ID] LONG KEY,
		[Age] DOUBLE CONTINUOUS PREDICT,
		[Age Prob] DOUBLE PROBABILITY OF [Age],
		[Weight] DOUBLE SUPPORT OF [ID],
		[Loyalty] LONG ORDERED,
		[Day] LONG CYCLICAL,
		[Income] DOUBLE DISCRETIZED(EQUAL_RANGES, 7) NOT_NULL,
		[HasPhone] TEXT DISCRETE MODEL_EXISTENCE_ONLY PREDICT_ONLY
	) USING [Decision_Trees] (MINIMUM_SUPPORT = 10, SCORE_METHOD = 'GINI')`
	st, err := Parse(src, isModelNamed())
	if err != nil {
		t.Fatal(err)
	}
	def := st.(*CreateModel).Def
	if def.Params["MINIMUM_SUPPORT"] != "10" || def.Params["SCORE_METHOD"] != "GINI" {
		t.Errorf("params = %v", def.Params)
	}
	ap, _ := def.Column("Age Prob")
	if ap.Content != core.ContentQualifier || ap.Qualifier != core.QualProbability || ap.QualifierOf != "Age" {
		t.Errorf("qualifier col = %+v", ap)
	}
	inc, _ := def.Column("Income")
	if inc.DiscretizeMethod != "EQUAL_RANGES" || inc.DiscretizeBuckets != 7 || !inc.NotNull {
		t.Errorf("income = %+v", inc)
	}
	hp, _ := def.Column("HasPhone")
	if !hp.ModelExistenceOnly || !hp.PredictOnly {
		t.Errorf("hasphone = %+v", hp)
	}
	loy, _ := def.Column("Loyalty")
	if loy.AttrType != core.AttrOrdered {
		t.Errorf("loyalty = %+v", loy)
	}
}

func TestParseCreateValidationRuns(t *testing.T) {
	// No KEY column: parser must surface the validation error.
	src := `CREATE MINING MODEL m ([A] TEXT DISCRETE) USING [x]`
	if _, err := Parse(src, isModelNamed()); err == nil || !strings.Contains(err.Error(), "KEY") {
		t.Errorf("validation error = %v", err)
	}
}

// paperInsert is the INSERT statement printed verbatim in Section 3.3.
const paperInsert = `INSERT INTO [Age Prediction] (
	[Customer ID], [Gender], [Age],
	[Product Purchases]([Product Name], [Quantity], [Product Type]))
SHAPE
	{SELECT [Customer ID], [Gender], [Age] FROM Customers ORDER BY [Customer ID]}
	APPEND (
		{SELECT [CustID], [Product Name], [Quantity], [Product Type] FROM Sales ORDER BY [CustID]}
		RELATE [Customer ID] To [CustID]) AS [Product Purchases]`

func TestParsePaperInsert(t *testing.T) {
	st, err := Parse(paperInsert, isModelNamed("Age Prediction"))
	if err != nil {
		t.Fatal(err)
	}
	ins := st.(*InsertInto)
	if ins.Model != "Age Prediction" || len(ins.Bindings) != 4 {
		t.Fatalf("insert = %+v", ins)
	}
	nested := ins.Bindings[3]
	if nested.Name != "Product Purchases" || len(nested.Nested) != 3 {
		t.Errorf("nested binding = %+v", nested)
	}
	if ins.Source.Shape == nil {
		t.Fatal("source must be SHAPE")
	}
	if len(ins.Source.Shape.Appends) != 1 {
		t.Errorf("appends = %d", len(ins.Source.Shape.Appends))
	}
}

func TestParseInsertSkipAndSelect(t *testing.T) {
	src := `INSERT INTO [m] ([ID], [T](SKIP, [X])) SELECT a, b FROM t`
	st, err := Parse(src, isModelNamed("m"))
	if err != nil {
		t.Fatal(err)
	}
	ins := st.(*InsertInto)
	if !ins.Bindings[1].Nested[0].Skip || ins.Bindings[1].Nested[1].Name != "X" {
		t.Errorf("bindings = %+v", ins.Bindings)
	}
	if ins.Source.Select == nil {
		t.Error("select source missing")
	}
}

func TestInsertIntoTableIsNotDMX(t *testing.T) {
	st, err := Parse("INSERT INTO Customers VALUES (1)", isModelNamed("m"))
	if sql, ok := st.(*SQL); err != nil || !ok {
		t.Errorf("plain SQL insert: st=%T err=%v, want *SQL", st, err)
	} else if _, ok := sql.Stmt.(*sqlengine.InsertStmt); !ok {
		t.Errorf("plain SQL insert parsed as %T", sql.Stmt)
	}
}

// paperPrediction is the PREDICTION JOIN from Section 3.3 (whitespace and a
// stray comma in the paper's listing normalized).
const paperPrediction = `SELECT t.[Customer ID], [Age Prediction].[Age]
FROM [Age Prediction]
PREDICTION JOIN (SHAPE {
	SELECT [Customer ID], [Gender] FROM Customers ORDER BY [Customer ID]}
	APPEND ({SELECT [CustID], [Product Name], [Quantity] FROM Sales ORDER BY [CustID]}
	RELATE [Customer ID] To [CustID]) AS [Product Purchases]) as t
ON [Age Prediction].Gender = t.Gender and
	[Age Prediction].[Product Purchases].[Product Name] = t.[Product Purchases].[Product Name] and
	[Age Prediction].[Product Purchases].[Quantity] = t.[Product Purchases].[Quantity]`

func TestParsePaperPredictionJoin(t *testing.T) {
	st, err := Parse(paperPrediction, isModelNamed("Age Prediction"))
	if err != nil {
		t.Fatal(err)
	}
	ps := st.(*PredictionSelect)
	if ps.Model != "Age Prediction" || ps.Natural || ps.Alias != "t" {
		t.Errorf("ps = %+v", ps)
	}
	if ps.Source.Shape == nil || ps.On == nil {
		t.Error("source/on missing")
	}
	if len(ps.Select.Items) != 2 {
		t.Errorf("items = %d", len(ps.Select.Items))
	}
}

func TestParseNaturalPredictionJoin(t *testing.T) {
	src := `SELECT Predict([Age]), PredictProbability([Age]), Cluster()
		FROM [m] NATURAL PREDICTION JOIN (SELECT 'Male' AS Gender) AS t WHERE PredictProbability([Age]) > 0.5`
	st, err := Parse(src, isModelNamed("m"))
	if err != nil {
		t.Fatal(err)
	}
	ps := st.(*PredictionSelect)
	if !ps.Natural || ps.On != nil || ps.Select.Where == nil {
		t.Errorf("ps = %+v", ps)
	}
	f := ps.Select.Items[0].Expr.(*sqlengine.FuncCall)
	if f.Name != "PREDICT" || !IsPredictionFunc(f.Name) {
		t.Errorf("func = %+v", f)
	}
	if !IsPredictionFunc("TOPCOUNT") || IsPredictionFunc("UPPER") {
		t.Error("IsPredictionFunc misclassifies")
	}
}

func TestParseTopPrediction(t *testing.T) {
	src := `SELECT TOP 3 t.id FROM [m] NATURAL PREDICTION JOIN (SELECT 1 AS id) t`
	st, err := Parse(src, isModelNamed("m"))
	if err != nil {
		t.Fatal(err)
	}
	if top := st.(*PredictionSelect).Select.Top; top == nil || *top != 3 {
		t.Errorf("top = %v", top)
	}
}

func TestParseContentAndColumns(t *testing.T) {
	st, err := Parse("SELECT * FROM [m].CONTENT", isModelNamed("m"))
	if err != nil {
		t.Fatal(err)
	}
	if rs := st.(*RowsetSelect); rs.Model != "m" || rs.Rowset != "CONTENT" {
		t.Errorf("content = %+v", rs)
	}
	st, err = Parse("SELECT * FROM [m].COLUMNS", isModelNamed("m"))
	if err != nil {
		t.Fatal(err)
	}
	if rs := st.(*RowsetSelect); rs.Model != "m" || rs.Rowset != "COLUMNS" {
		t.Errorf("columns = %+v", rs)
	}
	if _, err := Parse("SELECT * FROM [m].WHATEVER", isModelNamed("m")); err == nil {
		t.Error("unknown accessor must fail")
	}
}

func TestParseSchemaRowset(t *testing.T) {
	st, err := Parse("SELECT * FROM [$SYSTEM].[MINING_MODELS]", isModelNamed())
	if err != nil {
		t.Fatal(err)
	}
	if rs := st.(*RowsetSelect); rs.Model != "" || rs.Rowset != "MINING_MODELS" {
		t.Errorf("rowset = %+v", st)
	}
}

func TestParseDeleteAndDrop(t *testing.T) {
	st, err := Parse("DELETE FROM [m]", isModelNamed("m"))
	if err != nil {
		t.Fatal(err)
	}
	if st.(*DeleteFrom).Model != "m" {
		t.Error("delete model")
	}
	// DELETE FROM a table is SQL, not DMX.
	st, err = Parse("DELETE FROM Customers WHERE a = 1", isModelNamed("m"))
	if sql, ok := st.(*SQL); err != nil || !ok {
		t.Errorf("sql delete: %T %v, want *SQL", st, err)
	} else if _, ok := sql.Stmt.(*sqlengine.DeleteStmt); !ok {
		t.Errorf("sql delete parsed as %T", sql.Stmt)
	}
	st, err = Parse("DROP MINING MODEL [m]", isModelNamed("m"))
	if err != nil {
		t.Fatal(err)
	}
	if st.(*DropModel).Name != "m" {
		t.Error("drop name")
	}
}

func TestPlainSelectIsNotDMX(t *testing.T) {
	st, err := Parse("SELECT a, b FROM Customers WHERE a > 1", isModelNamed("m"))
	if sql, ok := st.(*SQL); err != nil || !ok {
		t.Errorf("plain select: %T %v, want *SQL", st, err)
	} else if sel, ok := sql.Stmt.(*sqlengine.SelectStmt); !ok || len(sel.From) != 1 || sel.Where == nil {
		t.Errorf("plain select parsed as %+v", sql.Stmt)
	}
}

func TestSelectFromModelWithoutJoinFails(t *testing.T) {
	if _, err := Parse("SELECT Age FROM [m]", isModelNamed("m")); err == nil {
		t.Error("SELECT FROM model without PREDICTION JOIN must fail")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"CREATE MINING MODEL",
		"CREATE MINING MODEL m [x] USING y",
		"CREATE MINING MODEL m ([ID] BLOB KEY) USING y",
		"CREATE MINING MODEL m ([ID] LONG KEY, [T] TABLE([K] TEXT KEY, [N] TABLE([X] TEXT KEY))) USING y",
		"CREATE MINING MODEL m ([ID] LONG KEY) USING",
		"INSERT INTO [m] (a",
		"INSERT INTO [m] (a) VALUES (1)",
		"SELECT x FROM [m] PREDICTION JOIN (SELECT 1) t", // missing ON
		"DROP MINING MODEL",
	}
	for _, src := range bad {
		if _, err := Parse(src, isModelNamed("m")); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseColumnModifierErrors(t *testing.T) {
	bad := []string{
		// OF without a preceding qualifier keyword.
		"CREATE MINING MODEL m ([ID] LONG KEY, [P] DOUBLE OF [ID]) USING x",
		// DISCRETIZED with a bad bucket count.
		"CREATE MINING MODEL m ([ID] LONG KEY, [A] DOUBLE DISCRETIZED(EQUAL_AREAS, 1) PREDICT) USING x",
		"CREATE MINING MODEL m ([ID] LONG KEY, [A] DOUBLE DISCRETIZED(EQUAL_AREAS, x) PREDICT) USING x",
		// RELATED without TO.
		"CREATE MINING MODEL m ([ID] LONG KEY, [A] TEXT RELATED [B]) USING x",
		// Qualifier without OF.
		"CREATE MINING MODEL m ([ID] LONG KEY, [P] DOUBLE PROBABILITY [A]) USING x",
		// Parameter list errors.
		"CREATE MINING MODEL m ([ID] LONG KEY, [A] TEXT DISCRETE PREDICT) USING x (P =)",
		"CREATE MINING MODEL m ([ID] LONG KEY, [A] TEXT DISCRETE PREDICT) USING x (P = 1",
	}
	for _, src := range bad {
		if _, err := Parse(src, isModelNamed()); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseDiscretizedBucketOnlyForm(t *testing.T) {
	st, err := Parse(`CREATE MINING MODEL m ([ID] LONG KEY,
		[A] DOUBLE DISCRETIZED(8) PREDICT) USING x`, isModelNamed())
	if err != nil {
		t.Fatal(err)
	}
	col, _ := st.(*CreateModel).Def.Column("A")
	if col.DiscretizeBuckets != 8 || col.DiscretizeMethod != "" {
		t.Errorf("col = %+v", col)
	}
}

func TestParseTablePredictOnly(t *testing.T) {
	st, err := Parse(`CREATE MINING MODEL m ([ID] LONG KEY,
		[T] TABLE([K] TEXT KEY) PREDICT_ONLY) USING x`, isModelNamed())
	if err != nil {
		t.Fatal(err)
	}
	col, _ := st.(*CreateModel).Def.Column("T")
	if !col.PredictOnly || col.Predict {
		t.Errorf("table flags = %+v", col)
	}
}

func TestParseInsertIntoMiningModelKeywords(t *testing.T) {
	// The explicit "INSERT INTO MINING MODEL <name>" form routes to DMX even
	// when the name is not yet known to the catalog callback.
	st, err := Parse("INSERT INTO MINING MODEL [m] ([a]) SELECT a FROM t", isModelNamed())
	if err != nil {
		t.Fatal(err)
	}
	if st.(*InsertInto).Model != "m" {
		t.Errorf("model = %v", st)
	}
}

func TestParseSourceParenAndBraceForms(t *testing.T) {
	for _, src := range []string{
		"INSERT INTO [m] ([a]) (SELECT a FROM t)",
		"INSERT INTO [m] ([a]) {SELECT a FROM t}",
		"INSERT INTO [m] ([a]) (SHAPE {SELECT a FROM t})",
	} {
		st, err := Parse(src, isModelNamed("m"))
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		ins := st.(*InsertInto)
		if ins.Source.Select == nil && ins.Source.Shape == nil {
			t.Errorf("Parse(%q): no source", src)
		}
	}
}

func TestParsePredictionWithoutAlias(t *testing.T) {
	st, err := Parse(`SELECT Predict([A]) FROM [m] NATURAL PREDICTION JOIN (SELECT 1 AS A)`,
		isModelNamed("m"))
	if err != nil {
		t.Fatal(err)
	}
	if st.(*PredictionSelect).Alias != "" {
		t.Errorf("alias = %q", st.(*PredictionSelect).Alias)
	}
}

func TestParseCasesAccessor(t *testing.T) {
	st, err := Parse("SELECT * FROM [m].CASES", isModelNamed("m"))
	if err != nil {
		t.Fatal(err)
	}
	if rs := st.(*RowsetSelect); rs.Model != "m" || rs.Rowset != "CASES" {
		t.Errorf("cases model = %+v", st)
	}
}
