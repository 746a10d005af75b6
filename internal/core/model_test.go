package core

import (
	"strings"
	"testing"

	"repro/internal/rowset"
)

// agePredictionDef is the paper's running example model (Section 3.2).
func agePredictionDef() *ModelDef {
	return &ModelDef{
		Name:      "Age Prediction",
		Algorithm: "Decision_Trees",
		Columns: []ColumnDef{
			{Name: "Customer ID", DataType: rowset.TypeLong, Content: ContentKey},
			{Name: "Gender", DataType: rowset.TypeText, Content: ContentAttribute, AttrType: AttrDiscrete},
			{Name: "Age", DataType: rowset.TypeDouble, Content: ContentAttribute,
				AttrType: AttrDiscretized, DiscretizeBuckets: 4, Predict: true},
			{Name: "Product Purchases", Content: ContentTable, Table: []ColumnDef{
				{Name: "Product Name", DataType: rowset.TypeText, Content: ContentKey},
				{Name: "Quantity", DataType: rowset.TypeDouble, Content: ContentAttribute,
					AttrType: AttrContinuous, Distribution: DistNormal},
				{Name: "Product Type", DataType: rowset.TypeText, Content: ContentRelation,
					RelatedTo: "Product Name"},
			}},
		},
	}
}

func TestValidateAgePrediction(t *testing.T) {
	if err := agePredictionDef().Validate(); err != nil {
		t.Fatalf("paper model must validate: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	base := agePredictionDef()

	noKey := *base
	noKey.Columns = base.Columns[1:]
	if err := noKey.Validate(); err == nil || !strings.Contains(err.Error(), "KEY") {
		t.Errorf("missing key: %v", err)
	}

	twoKeys := *base
	twoKeys.Columns = append([]ColumnDef{{Name: "K2", DataType: rowset.TypeLong, Content: ContentKey}}, base.Columns...)
	if err := twoKeys.Validate(); err == nil {
		t.Error("two keys must fail")
	}

	noAlgo := *base
	noAlgo.Algorithm = ""
	if err := noAlgo.Validate(); err == nil {
		t.Error("missing algorithm must fail")
	}

	noName := *base
	noName.Name = ""
	if err := noName.Validate(); err == nil {
		t.Error("missing name must fail")
	}

	badRelation := agePredictionDef()
	badRelation.Columns[3].Table[2].RelatedTo = "No Such Column"
	if err := badRelation.Validate(); err == nil {
		t.Error("dangling RELATED TO must fail")
	}

	badQual := agePredictionDef()
	badQual.Columns = append(badQual.Columns, ColumnDef{
		Name: "P", DataType: rowset.TypeDouble, Content: ContentQualifier,
		Qualifier: QualProbability, QualifierOf: "Nope",
	})
	if err := badQual.Validate(); err == nil {
		t.Error("dangling OF must fail")
	}

	predictKey := agePredictionDef()
	predictKey.Columns[0].Predict = true
	if err := predictKey.Validate(); err == nil {
		t.Error("PREDICT KEY must fail")
	}

	emptyTable := agePredictionDef()
	emptyTable.Columns[3].Table = nil
	if err := emptyTable.Validate(); err == nil {
		t.Error("empty nested table must fail")
	}

	noNestedKey := agePredictionDef()
	noNestedKey.Columns[3].Table = noNestedKey.Columns[3].Table[1:2]
	if err := noNestedKey.Validate(); err == nil {
		t.Error("nested table without key must fail")
	}

	discretizedText := agePredictionDef()
	discretizedText.Columns[1].AttrType = AttrDiscretized
	if err := discretizedText.Validate(); err == nil {
		t.Error("DISCRETIZED TEXT must fail")
	}
}

func TestQualifierOfNestedKeyAllowed(t *testing.T) {
	// Table 1 of the paper: Car Ownership(Car KEY, Probability OF Car).
	def := &ModelDef{
		Name: "m", Algorithm: "Clustering",
		Columns: []ColumnDef{
			{Name: "id", DataType: rowset.TypeLong, Content: ContentKey},
			{Name: "Cars", Content: ContentTable, Table: []ColumnDef{
				{Name: "Car", DataType: rowset.TypeText, Content: ContentKey},
				{Name: "Probability", DataType: rowset.TypeDouble, Content: ContentQualifier,
					Qualifier: QualProbability, QualifierOf: "Car"},
			}},
		},
	}
	if err := def.Validate(); err != nil {
		t.Errorf("qualifier of nested key must validate: %v", err)
	}
}

func TestOutputColumnsAndLookups(t *testing.T) {
	def := agePredictionDef()
	out := def.OutputColumns()
	if len(out) != 1 || out[0] != "Age" {
		t.Errorf("outputs = %v", out)
	}
	if _, ok := def.Column("gender"); !ok {
		t.Error("case-insensitive column lookup failed")
	}
	if _, ok := def.Column("zzz"); ok {
		t.Error("missing column lookup must fail")
	}
}

func TestDDLRendering(t *testing.T) {
	def := agePredictionDef()
	def.Params = map[string]string{"COMPLEXITY_PENALTY": "0.5"}
	ddl := def.DDL()
	for _, want := range []string{
		"CREATE MINING MODEL [Age Prediction]",
		"[Customer ID] LONG KEY",
		"[Gender] TEXT DISCRETE",
		"DISCRETIZED(EQUAL_AREAS, 4) PREDICT",
		"[Product Purchases] TABLE(",
		"NORMAL CONTINUOUS",
		"RELATED TO [Product Name]",
		"USING [Decision_Trees] (COMPLEXITY_PENALTY = 0.5)",
	} {
		if !strings.Contains(ddl, want) {
			t.Errorf("DDL missing %q:\n%s", want, ddl)
		}
	}
}

func TestContentNodeGraph(t *testing.T) {
	root := &ContentNode{Type: NodeModel, Caption: "model"}
	tree := root.AddChild(&ContentNode{Type: NodeTree, Caption: "Age"})
	tree.AddChild(&ContentNode{Type: NodeDistribution, Caption: "leaf1"})
	tree.AddChild(&ContentNode{Type: NodeDistribution, Caption: "leaf2"})
	next := root.AssignIDs(1)
	if next != 5 {
		t.Errorf("AssignIDs next = %d", next)
	}
	if root.Count() != 4 {
		t.Errorf("Count = %d", root.Count())
	}
	leaf := root.Find(func(n *ContentNode) bool { return n.Caption == "leaf2" })
	if leaf == nil || leaf.ID != 4 {
		t.Errorf("Find leaf2 = %+v", leaf)
	}
	var order []int
	root.Walk(func(n, p *ContentNode) { order = append(order, n.ID) })
	if len(order) != 4 || order[0] != 1 || order[1] != 2 {
		t.Errorf("walk order = %v", order)
	}
}

func TestEnumStringsAndParsers(t *testing.T) {
	if ContentKey.String() != "KEY" || ContentTable.String() != "TABLE" {
		t.Error("ContentType strings")
	}
	if at, ok := ParseAttributeType("continous"); !ok || at != AttrContinuous {
		t.Error("paper's CONTINOUS spelling must parse")
	}
	if at, ok := ParseAttributeType("SEQUENCE_TIME"); !ok || at != AttrSequenceTime {
		t.Error("SEQUENCE_TIME")
	}
	if _, ok := ParseAttributeType("bogus"); ok {
		t.Error("bogus attr type must fail")
	}
	if q, ok := ParseQualifierKind("probability_variance"); !ok || q != QualProbabilityVariance {
		t.Error("qualifier parse")
	}
	if d, ok := ParseDistribution("log_normal"); !ok || d != DistLogNormal {
		t.Error("distribution parse")
	}
	if !AttrDiscretized.IsNumericLike() || AttrDiscrete.IsNumericLike() {
		t.Error("IsNumericLike")
	}
}
