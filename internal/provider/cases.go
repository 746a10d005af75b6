package provider

import (
	"bytes"
	"fmt"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/rowset"
)

// casesRowset renders the training cases a model has consumed (SELECT *
// FROM <model>.CASES) in tokenized attribute/value form: one row per
// (case, present attribute). This is the case-browsing accessor of the
// OLE DB DM specification; it also makes the tokenizer's work inspectable —
// useful when debugging why a model sees the data the way it does.
func (p *Provider) casesRowset(name string) (*rowset.Rowset, error) {
	// e is an immutable snapshot entry; its cases and space never change
	// after publication, so the render needs no lock.
	e, err := p.entry(name)
	if err != nil {
		return nil, err
	}
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
// document (SELECT * FROM <model>.PMML).
func (p *Provider) pmmlRowset(name string) (*rowset.Rowset, error) {
	e, err := p.entry(name)
	if err != nil {
		return nil, err
	}
	// Immutable snapshot entry: Trained/CaseCount are fixed at publication.
	trained := e.model.Trained
	caseCount := e.model.CaseCount
	if trained == nil {
		return nil, fmt.Errorf("provider: model %q is not populated; INSERT INTO it first", name)
	}
	var buf bytes.Buffer
	if err := content.WriteXML(&buf, e.model.Def.Name, trained.AlgorithmName(), caseCount, trained.Content()); err != nil {
		return nil, err
	}
	out := rowset.New(rowset.MustSchema(rowset.Column{Name: "PMML", Type: rowset.TypeText}))
	if err := out.AppendVals(buf.String()); err != nil {
		return nil, err
	}
	return out, nil
}
