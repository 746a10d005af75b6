package provider

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/dmx"
	"repro/internal/obs"
	"repro/internal/rowset"
	"repro/internal/schemarowset"
	"repro/internal/sqlengine"
)

// rowsetSelect runs a SELECT over one of the provider's rowsets as a SELECT of
// the SQL engine over a relation: the items, WHERE, GROUP BY, HAVING, ORDER BY,
// DISTINCT and TOP are the engine's, as for any table.
func (p *Provider) rowsetSelect(ctx context.Context, st *dmx.RowsetSelect) (*rowset.Rowset, error) {
	defer obs.FromContext(ctx).StartStage(obs.StageScan).Stop()
	rs, err := p.providerRowset(st.Model, st.Rowset)
	if err != nil {
		return nil, err
	}
	return p.Engine.QueryRelation(ctx, st.Select, sqlengine.Relation{
		Schema: rs.Schema(), Rows: rs.Rows(), Kind: "rowset", Label: obs.Label{Text: st.Name()},
	})
}

// providerRowset builds a rowset the provider exposes: <model>.<accessor>, or
// $SYSTEM.<name> when model is empty. Each reads one catalog snapshot — an
// immutable entry, or allModels' atomic snapshot — so it is consistent while a
// training commit publishes the next one, and never blocks behind it.
func (p *Provider) providerRowset(model, name string) (*rowset.Rowset, error) {
	if model == "" {
		return schemarowset.Build(name, p.allModels(), p.Registry, p.obs)
	}
	e, err := p.entry(model)
	if err != nil {
		return nil, err
	}
	switch name {
	case "COLUMNS":
		return schemarowset.MiningColumns([]*core.Model{e.model})
	case "CASES":
		return casesRowset(e)
	case "CONTENT":
		if err := populated(e); err != nil {
			return nil, err
		}
		return content.Rowset(e.model.Def.Name, e.model.Trained.Content())
	case "PMML":
		if err := populated(e); err != nil {
			return nil, err
		}
		return pmmlRowset(e)
	}
	return nil, &core.NotFoundError{Kind: "model accessor", Name: name}
}

// populated fails unless e's model has been trained.
func populated(e *modelEntry) error {
	if !e.model.IsTrained() {
		return fmt.Errorf("provider: model %q is not populated; INSERT INTO it first", e.model.Def.Name)
	}
	return nil
}

// casesRowset renders the training cases a model has consumed (<model>.CASES)
// in tokenized attribute/value form: one row per (case, present attribute).
// This is the case-browsing accessor of the OLE DB DM specification; it also
// makes the tokenizer's work inspectable — useful when debugging why a model
// sees the data the way it does.
func casesRowset(e *modelEntry) (*rowset.Rowset, error) {
	schema := rowset.MustSchema(
		rowset.Column{Name: "CASE_KEY", Type: rowset.TypeText},
		rowset.Column{Name: "ATTRIBUTE", Type: rowset.TypeText},
		rowset.Column{Name: "VALUE", Type: rowset.TypeText},
		rowset.Column{Name: "PROBABILITY", Type: rowset.TypeDouble},
		rowset.Column{Name: "WEIGHT", Type: rowset.TypeDouble},
	)
	out := rowset.New(schema)
	space := e.tokenizer.Space
	for ci := 0; ci < e.cases.Len(); ci++ {
		c := e.cases.Case(ci)
		key := rowset.FormatValue(c.Key)
		// Cells are in space index order: a deterministic attribute order.
		for _, cell := range c.Cells() {
			a := space.Attr(int(cell.Attr))
			if err := out.AppendVals(key, a.Name, renderCaseValue(a, cell), cell.Prob, c.Weight); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// renderCaseValue maps a tokenized value back to its display form.
func renderCaseValue(a *core.Attribute, cell core.Cell) string {
	switch {
	case a.Kind == core.KindExistence:
		return "present"
	case cell.Code >= 0 && int(cell.Code) < len(a.States):
		return a.States[cell.Code]
	}
	return rowset.FormatValue(cell.Value())
}

// pmmlRowset renders a trained model's content graph as a single-cell XML
// document (<model>.PMML).
func pmmlRowset(e *modelEntry) (*rowset.Rowset, error) {
	var buf bytes.Buffer
	trained := e.model.Trained
	if err := content.WriteXML(&buf, e.model.Def.Name, trained.AlgorithmName(), e.model.CaseCount, trained.Content()); err != nil {
		return nil, err
	}
	out := rowset.New(rowset.MustSchema(rowset.Column{Name: "PMML", Type: rowset.TypeText}))
	if err := out.AppendVals(buf.String()); err != nil {
		return nil, err
	}
	return out, nil
}
