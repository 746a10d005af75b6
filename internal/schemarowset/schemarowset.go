// Package schemarowset builds the OLE DB schema rowsets through which "a
// provider describes information about itself to potential consumers"
// (paper Section 3): the model catalog, per-model column metadata, the
// installed mining services and their parameters, and the prediction
// functions the provider supports.
package schemarowset

import (
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rowset"
)

// Names of the supported schema rowsets (SELECT * FROM $SYSTEM.<name>).
const (
	RowsetModels         = "MINING_MODELS"
	RowsetColumns        = "MINING_COLUMNS"
	RowsetServices       = "MINING_SERVICES"
	RowsetServiceParams  = "SERVICE_PARAMETERS"
	RowsetFunctions      = "MINING_FUNCTIONS"
	RowsetQueryLog       = "DM_QUERY_LOG"
	RowsetMetrics        = "DM_PROVIDER_METRICS"
	RowsetConnections    = "DM_CONNECTIONS"
	RowsetFlightRecorder = "DM_FLIGHT_RECORDER"
	RowsetMetricsHistory = "DM_METRICS_HISTORY"
)

// Names lists the available schema rowsets.
func Names() []string {
	return []string{
		RowsetModels, RowsetColumns, RowsetServices, RowsetServiceParams, RowsetFunctions,
		RowsetQueryLog, RowsetMetrics, RowsetConnections,
		RowsetFlightRecorder, RowsetMetricsHistory,
	}
}

// Build dispatches a schema rowset by name. The obs registry feeds the
// observability rowsets; with observability disabled (nil registry) those
// rowsets still build, just empty, so self-description keeps working.
func Build(name string, models []*core.Model, reg *core.Registry, o *obs.Registry) (*rowset.Rowset, error) {
	switch strings.ToUpper(name) {
	case RowsetModels:
		return MiningModels(models)
	case RowsetColumns:
		return MiningColumns(models)
	case RowsetServices:
		return MiningServices(reg)
	case RowsetServiceParams:
		return ServiceParameters(reg)
	case RowsetFunctions:
		return MiningFunctions()
	case RowsetQueryLog:
		return QueryLog(o)
	case RowsetMetrics:
		return ProviderMetrics(o)
	case RowsetConnections:
		return Connections(o)
	case RowsetFlightRecorder:
		return FlightRecorder(o)
	case RowsetMetricsHistory:
		return MetricsHistory(o)
	}
	return nil, &core.NotFoundError{Kind: "schema rowset", Name: name}
}

// MiningModels lists every catalogued model with its population state.
func MiningModels(models []*core.Model) (*rowset.Rowset, error) {
	rs := rowset.New(rowset.MustSchema(
		rowset.Column{Name: "MODEL_NAME", Type: rowset.TypeText},
		rowset.Column{Name: "SERVICE_NAME", Type: rowset.TypeText},
		rowset.Column{Name: "IS_POPULATED", Type: rowset.TypeBool},
		rowset.Column{Name: "CASE_COUNT", Type: rowset.TypeLong},
		rowset.Column{Name: "ATTRIBUTE_COUNT", Type: rowset.TypeLong},
		rowset.Column{Name: "PREDICTION_COLUMNS", Type: rowset.TypeText},
	))
	sorted := append([]*core.Model(nil), models...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Def.Name < sorted[j].Def.Name })
	for _, m := range sorted {
		attrs := int64(0)
		if m.Space != nil {
			attrs = int64(m.Space.Len())
		}
		err := rs.AppendVals(
			m.Def.Name,
			m.Def.Algorithm,
			m.IsTrained(),
			int64(m.CaseCount),
			attrs,
			strings.Join(m.Def.OutputColumns(), ", "),
		)
		if err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// MiningColumns lists the column metadata of every model — the Section 3.2
// meta-information as a browsable rowset. Over one model it is that model's
// COLUMNS accessor.
func MiningColumns(models []*core.Model) (*rowset.Rowset, error) {
	rs := rowset.New(rowset.MustSchema(
		rowset.Column{Name: "MODEL_NAME", Type: rowset.TypeText},
		rowset.Column{Name: "COLUMN_NAME", Type: rowset.TypeText},
		rowset.Column{Name: "CONTAINING_TABLE", Type: rowset.TypeText},
		rowset.Column{Name: "DATA_TYPE", Type: rowset.TypeText},
		rowset.Column{Name: "CONTENT_TYPE", Type: rowset.TypeText},
		rowset.Column{Name: "ATTRIBUTE_TYPE", Type: rowset.TypeText},
		rowset.Column{Name: "DISTRIBUTION", Type: rowset.TypeText},
		rowset.Column{Name: "IS_INPUT", Type: rowset.TypeBool},
		rowset.Column{Name: "IS_PREDICTABLE", Type: rowset.TypeBool},
		rowset.Column{Name: "RELATED_TO", Type: rowset.TypeText},
		rowset.Column{Name: "QUALIFIER", Type: rowset.TypeText},
		rowset.Column{Name: "QUALIFIER_OF", Type: rowset.TypeText},
	))
	sorted := append([]*core.Model(nil), models...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Def.Name < sorted[j].Def.Name })
	for _, m := range sorted {
		if err := appendColumns(rs, m.Def.Name, "", m.Def.Columns); err != nil {
			return nil, err
		}
	}
	return rs, nil
}

func appendColumns(rs *rowset.Rowset, model, containing string, cols []core.ColumnDef) error {
	for i := range cols {
		c := &cols[i]
		attrType := ""
		if c.Content == core.ContentAttribute {
			attrType = c.AttrType.String()
		}
		err := rs.AppendVals(
			model,
			c.Name,
			containing,
			c.DataType.String(),
			c.Content.String(),
			attrType,
			c.Distribution.String(),
			c.IsInput(),
			c.IsOutput(),
			c.RelatedTo,
			c.Qualifier.String(),
			c.QualifierOf,
		)
		if err != nil {
			return err
		}
		if c.Content == core.ContentTable {
			if err := appendColumns(rs, model, c.Name, c.Table); err != nil {
				return err
			}
		}
	}
	return nil
}

// MiningServices describes the installed algorithms — the paper's mechanism
// for discovering "supported capabilities (e.g. prediction, segmentation,
// sequence analysis, etc.)".
func MiningServices(reg *core.Registry) (*rowset.Rowset, error) {
	rs := rowset.New(rowset.MustSchema(
		rowset.Column{Name: "SERVICE_NAME", Type: rowset.TypeText},
		rowset.Column{Name: "DESCRIPTION", Type: rowset.TypeText},
		rowset.Column{Name: "SUPPORTS_PREDICTION", Type: rowset.TypeBool},
		rowset.Column{Name: "SUPPORTS_TABLE_PREDICTION", Type: rowset.TypeBool},
		rowset.Column{Name: "SUPPORTS_INCREMENTAL_INSERT", Type: rowset.TypeBool},
	))
	for _, name := range reg.Names() {
		a, err := reg.Lookup(name)
		if err != nil {
			continue
		}
		err = rs.AppendVals(
			a.Name(),
			a.Description(),
			true,
			a.SupportsPredictTable(),
			// Repeated INSERT INTO retrains from accumulated cases rather
			// than updating incrementally; reported honestly as false.
			false,
		)
		if err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// ServiceParameters lists the USING-clause parameters of every service that
// documents them.
func ServiceParameters(reg *core.Registry) (*rowset.Rowset, error) {
	rs := rowset.New(rowset.MustSchema(
		rowset.Column{Name: "SERVICE_NAME", Type: rowset.TypeText},
		rowset.Column{Name: "PARAMETER_NAME", Type: rowset.TypeText},
		rowset.Column{Name: "PARAMETER_TYPE", Type: rowset.TypeText},
		rowset.Column{Name: "DEFAULT_VALUE", Type: rowset.TypeText},
		rowset.Column{Name: "DESCRIPTION", Type: rowset.TypeText},
	))
	for _, name := range reg.Names() {
		a, err := reg.Lookup(name)
		if err != nil {
			continue
		}
		pd, ok := a.(core.ParameterDescriber)
		if !ok {
			continue
		}
		for _, p := range pd.Parameters() {
			if err := rs.AppendVals(a.Name(), p.Name, p.Type, p.Default, p.Description); err != nil {
				return nil, err
			}
		}
	}
	return rs, nil
}

// miningFunction describes one prediction function.
type miningFunction struct {
	name, signature, returns, description string
}

var miningFunctions = []miningFunction{
	{"Predict", "Predict(<column> [, <max rows>])", "scalar or TABLE",
		"Best estimate for a scalar PREDICT column; top rows for a TABLE column"},
	{"PredictProbability", "PredictProbability(<column> [, <value>])", "DOUBLE",
		"Probability of the best estimate, or of a specific value"},
	{"PredictSupport", "PredictSupport(<column>)", "DOUBLE",
		"Training support behind the best estimate"},
	{"PredictStdev", "PredictStdev(<column>)", "DOUBLE",
		"Predictive standard deviation (continuous targets)"},
	{"PredictVariance", "PredictVariance(<column>)", "DOUBLE",
		"Predictive variance (continuous targets)"},
	{"PredictHistogram", "PredictHistogram(<column>)", "TABLE",
		"Full candidate histogram: value, probability, support, variance"},
	{"TopCount", "TopCount(<table expr>, <rank column>, <n>)", "TABLE",
		"First n rows of a table expression by descending rank column"},
	{"Cluster", "Cluster()", "TEXT",
		"Caption of the most likely cluster (segmentation models)"},
	{"ClusterProbability", "ClusterProbability()", "DOUBLE",
		"Probability of the most likely cluster"},
	{"PredictAssociation", "PredictAssociation(<table column> [, <max rows>])", "TABLE",
		"Ranked nested-table rows the case is likely to contain"},
	{"RangeMin", "RangeMin(<discretized column>)", "DOUBLE",
		"Lower bound of the predicted bucket"},
	{"RangeMid", "RangeMid(<discretized column>)", "DOUBLE",
		"Midpoint of the predicted bucket"},
	{"RangeMax", "RangeMax(<discretized column>)", "DOUBLE",
		"Upper bound of the predicted bucket"},
}

// MiningFunctions lists the provider's prediction functions (Section 3.2.4's
// user-defined functions on output columns).
func MiningFunctions() (*rowset.Rowset, error) {
	rs := rowset.New(rowset.MustSchema(
		rowset.Column{Name: "FUNCTION_NAME", Type: rowset.TypeText},
		rowset.Column{Name: "SIGNATURE", Type: rowset.TypeText},
		rowset.Column{Name: "RETURNS", Type: rowset.TypeText},
		rowset.Column{Name: "DESCRIPTION", Type: rowset.TypeText},
	))
	for _, f := range miningFunctions {
		if err := rs.AppendVals(f.name, f.signature, f.returns, f.description); err != nil {
			return nil, err
		}
	}
	return rs, nil
}
