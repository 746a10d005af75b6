package schemarowset

import (
	"strings"
	"testing"

	"repro/internal/algo/dtree"
	"repro/internal/algo/nbayes"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rowset"
)

func testModels() []*core.Model {
	def := &core.ModelDef{
		Name: "M1", Algorithm: "Decision_Trees",
		Columns: []core.ColumnDef{
			{Name: "ID", DataType: rowset.TypeLong, Content: core.ContentKey},
			{Name: "Age", DataType: rowset.TypeDouble, Content: core.ContentAttribute,
				AttrType: core.AttrContinuous, Distribution: core.DistNormal, Predict: true},
			{Name: "AgeP", DataType: rowset.TypeDouble, Content: core.ContentQualifier,
				Qualifier: core.QualProbability, QualifierOf: "Age"},
			{Name: "Basket", Content: core.ContentTable, Table: []core.ColumnDef{
				{Name: "Item", DataType: rowset.TypeText, Content: core.ContentKey},
				{Name: "Type", DataType: rowset.TypeText, Content: core.ContentRelation, RelatedTo: "Item"},
			}},
		},
	}
	sp := core.NewAttributeSpace()
	sp.Add(core.Attribute{Name: "Age", Column: "Age", Kind: core.KindContinuous})
	return []*core.Model{{Def: def, Space: sp, CaseCount: 42}}
}

func testRegistry() *core.Registry {
	r := core.NewRegistry()
	r.Register(dtree.New())
	r.Register(nbayes.New())
	return r
}

func TestMiningModels(t *testing.T) {
	rs, err := MiningModels(testModels())
	if err != nil {
		t.Fatalf("MiningModels: %v", err)
	}
	if rs.Len() != 1 {
		t.Fatalf("rows = %d", rs.Len())
	}
	r := rs.Row(0)
	if r[0] != "M1" || r[1] != "Decision_Trees" {
		t.Errorf("row = %v", r)
	}
	if r[2] != false { // no Trained → unpopulated
		t.Error("IS_POPULATED must be false")
	}
	if r[3] != int64(42) || r[4] != int64(1) {
		t.Errorf("counts = %v %v", r[3], r[4])
	}
	if !strings.Contains(r[5].(string), "Age") {
		t.Errorf("prediction columns = %v", r[5])
	}
}

func TestMiningColumnsRecursesNested(t *testing.T) {
	rs, err := MiningColumns(testModels())
	if err != nil {
		t.Fatalf("MiningColumns: %v", err)
	}
	if rs.Len() != 6 { // 4 top-level + 2 nested
		t.Fatalf("rows = %d", rs.Len())
	}
	// The nested Item row carries its containing table.
	var found bool
	for _, r := range rs.Rows() {
		if r[1] == "Item" {
			found = true
			if r[2] != "Basket" || r[4] != "KEY" {
				t.Errorf("nested row = %v", r)
			}
		}
		if r[1] == "AgeP" && (r[10] != "PROBABILITY" || r[11] != "Age") {
			t.Errorf("qualifier row = %v", r)
		}
		if r[1] == "Type" && r[9] != "Item" {
			t.Errorf("relation row = %v", r)
		}
		if r[1] == "Age" && (r[6] != "NORMAL" || r[8] != true) {
			t.Errorf("attribute row = %v", r)
		}
	}
	if !found {
		t.Error("nested column missing")
	}
}

func TestMiningServicesAndParams(t *testing.T) {
	reg := testRegistry()
	rs, err := MiningServices(reg)
	if err != nil {
		t.Fatalf("MiningServices: %v", err)
	}
	if rs.Len() != 2 {
		t.Fatalf("services = %d", rs.Len())
	}
	// Sorted by name: Decision_Trees then Naive_Bayes.
	if rs.Row(0)[0] != "Decision_Trees" || rs.Row(1)[0] != "Naive_Bayes" {
		t.Errorf("order = %v %v", rs.Row(0)[0], rs.Row(1)[0])
	}
	if rs.Row(0)[3] != true || rs.Row(1)[3] != false {
		t.Error("SUPPORTS_TABLE_PREDICTION flags wrong")
	}

	params, err := ServiceParameters(reg)
	if err != nil {
		t.Fatalf("ServiceParameters: %v", err)
	}
	if params.Len() != 6 { // 4 dtree + 2 nbayes
		t.Errorf("params = %d", params.Len())
	}
	seen := map[string]bool{}
	for _, r := range params.Rows() {
		seen[r[1].(string)] = true
	}
	for _, want := range []string{"MINIMUM_SUPPORT", "MAXIMUM_DEPTH", "PSEUDOCOUNT"} {
		if !seen[want] {
			t.Errorf("parameter %s missing", want)
		}
	}
}

func TestMiningFunctions(t *testing.T) {
	rs, err := MiningFunctions()
	if err != nil {
		t.Fatalf("MiningFunctions: %v", err)
	}
	if rs.Len() < 10 {
		t.Fatalf("functions = %d", rs.Len())
	}
	names := map[string]bool{}
	for _, r := range rs.Rows() {
		names[r[0].(string)] = true
	}
	for _, want := range []string{"Predict", "PredictHistogram", "TopCount", "Cluster"} {
		if !names[want] {
			t.Errorf("function %s missing", want)
		}
	}
}

func TestBuildDispatch(t *testing.T) {
	models, reg := testModels(), testRegistry()
	o := obs.NewRegistry()
	for _, name := range Names() {
		rs, err := Build(name, models, reg, o)
		if err != nil || rs == nil {
			t.Errorf("Build(%s): %v", name, err)
		}
	}
	// The observability rowsets must also build with observability disabled.
	for _, name := range []string{RowsetQueryLog, RowsetMetrics, RowsetConnections} {
		rs, err := Build(name, models, reg, nil)
		if err != nil || rs == nil {
			t.Errorf("Build(%s) with nil obs: %v", name, err)
		} else if rs.Len() != 0 {
			t.Errorf("Build(%s) with nil obs: %d rows, want 0", name, rs.Len())
		}
	}
	// Case-insensitive.
	if _, err := Build("mining_models", models, reg, o); err != nil {
		t.Errorf("lower-case dispatch: %v", err)
	}
	if _, err := Build("NOPE", models, reg, o); err == nil {
		t.Error("unknown rowset must fail")
	}
}

func TestObservabilityRowsets(t *testing.T) {
	o := obs.NewRegistry()
	o.Counter("provider_statements_total").Add(3)
	o.Histogram("provider_statement_latency_us").Observe(100)
	o.Histogram("provider_statement_latency_us").Observe(5000)
	o.QueryLog().Append(obs.Record{Statement: "SELECT 1", Kind: "SQL", RowsOut: 1})
	cs := o.Connections().Open("10.0.0.9:1234")
	cs.Request(false)
	defer o.Connections().Close(cs)

	metrics, err := ProviderMetrics(o)
	if err != nil {
		t.Fatalf("ProviderMetrics: %v", err)
	}
	found := map[string]bool{}
	for _, r := range metrics.Rows() {
		found[r[0].(string)] = true
	}
	for _, want := range []string{
		"provider_statements_total",
		"provider_statement_latency_us",
		"provider_statement_latency_us_count",
		"provider_statement_latency_us_sum",
	} {
		if !found[want] {
			t.Errorf("DM_PROVIDER_METRICS missing %q (have %v)", want, found)
		}
	}

	qlog, err := QueryLog(o)
	if err != nil {
		t.Fatalf("QueryLog: %v", err)
	}
	if qlog.Len() != 1 {
		t.Fatalf("DM_QUERY_LOG rows = %d, want 1", qlog.Len())
	}
	if got, _ := qlog.Value(0, "STATEMENT"); got != "SELECT 1" {
		t.Errorf("STATEMENT = %v", got)
	}

	conns, err := Connections(o)
	if err != nil {
		t.Fatalf("Connections: %v", err)
	}
	if conns.Len() != 1 {
		t.Fatalf("DM_CONNECTIONS rows = %d, want 1", conns.Len())
	}
	if got, _ := conns.Value(0, "REMOTE_ADDRESS"); got != "10.0.0.9:1234" {
		t.Errorf("REMOTE_ADDRESS = %v", got)
	}
	if got, _ := conns.Value(0, "REQUESTS"); got != int64(1) {
		t.Errorf("REQUESTS = %v", got)
	}
}
