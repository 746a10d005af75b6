// Package content renders trained-model content graphs (core.ContentNode)
// into the two forms the paper describes: the MINING_MODEL_CONTENT schema
// rowset used by "SELECT * FROM <model>.CONTENT" (Section 3.3), and a
// PMML-inspired XML document for open persistence and model sharing
// (Section 4's nod to the PMML effort).
package content

import (
	"encoding/xml"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/rowset"
)

// RowsetSchema is the column layout of the MINING_MODEL_CONTENT rowset. The
// node's distribution is itself a nested table — the same hierarchical
// rowset machinery the provider uses for casesets.
func RowsetSchema() *rowset.Schema {
	dist := rowset.MustSchema(
		rowset.Column{Name: "ATTRIBUTE_VALUE", Type: rowset.TypeText},
		rowset.Column{Name: "SUPPORT", Type: rowset.TypeDouble},
		rowset.Column{Name: "PROBABILITY", Type: rowset.TypeDouble},
		rowset.Column{Name: "VARIANCE", Type: rowset.TypeDouble},
	)
	return rowset.MustSchema(
		rowset.Column{Name: "MODEL_NAME", Type: rowset.TypeText},
		rowset.Column{Name: "NODE_UNIQUE_NAME", Type: rowset.TypeText},
		rowset.Column{Name: "NODE_TYPE", Type: rowset.TypeLong},
		rowset.Column{Name: "NODE_CAPTION", Type: rowset.TypeText},
		rowset.Column{Name: "ATTRIBUTE_NAME", Type: rowset.TypeText},
		rowset.Column{Name: "NODE_RULE", Type: rowset.TypeText},
		rowset.Column{Name: "NODE_SUPPORT", Type: rowset.TypeDouble},
		rowset.Column{Name: "NODE_SCORE", Type: rowset.TypeDouble},
		rowset.Column{Name: "PARENT_UNIQUE_NAME", Type: rowset.TypeText},
		rowset.Column{Name: "CHILDREN_CARDINALITY", Type: rowset.TypeLong},
		rowset.Column{Name: "NODE_DISTRIBUTION", Type: rowset.TypeTable, Nested: dist},
	)
}

// Rowset flattens a content graph into the MINING_MODEL_CONTENT rowset,
// depth-first so parents precede children.
func Rowset(modelName string, root *core.ContentNode) (*rowset.Rowset, error) {
	schema := RowsetSchema()
	distSchema := schema.Columns[schema.Len()-1].Nested
	out := rowset.New(schema)
	if root == nil {
		return out, nil
	}
	// Walk has no error channel, so the first append failure is recorded and
	// the remaining nodes are skipped.
	var walkErr error
	root.Walk(func(n, parent *core.ContentNode) {
		if walkErr != nil {
			return
		}
		parentName := ""
		if parent != nil {
			parentName = nodeName(parent.ID)
		}
		dist := rowset.New(distSchema)
		for _, s := range n.Distribution {
			if err := dist.AppendVals(s.Value, s.Support, s.Prob, s.Variance); err != nil {
				walkErr = err
				return
			}
		}
		walkErr = out.AppendVals(
			modelName,
			nodeName(n.ID),
			int64(n.Type),
			n.Caption,
			n.Attribute,
			n.Condition,
			n.Support,
			n.Score,
			parentName,
			int64(len(n.Children)),
			dist,
		)
	})
	if walkErr != nil {
		return nil, walkErr
	}
	return out, nil
}

func nodeName(id int) string { return fmt.Sprintf("node%04d", id) }

// ---------- PMML-inspired XML ----------

// xmlModel is the document root.
type xmlModel struct {
	XMLName   xml.Name `xml:"MiningModel"`
	Name      string   `xml:"name,attr"`
	Algorithm string   `xml:"algorithm,attr"`
	Cases     int      `xml:"cases,attr"`
	Root      *xmlNode `xml:"Node"`
}

type xmlNode struct {
	ID        int        `xml:"id,attr"`
	Type      int        `xml:"type,attr"`
	Caption   string     `xml:"caption,attr,omitempty"`
	Attribute string     `xml:"attribute,attr,omitempty"`
	Condition string     `xml:"condition,attr,omitempty"`
	Support   float64    `xml:"support,attr"`
	Score     float64    `xml:"score,attr"`
	States    []xmlState `xml:"State"`
	Children  []*xmlNode `xml:"Node"`
}

type xmlState struct {
	Value    string  `xml:"value,attr"`
	Support  float64 `xml:"support,attr"`
	Prob     float64 `xml:"probability,attr"`
	Variance float64 `xml:"variance,attr"`
}

// WriteXML serializes a content graph as indented XML.
func WriteXML(w io.Writer, modelName, algorithm string, cases int, root *core.ContentNode) error {
	doc := xmlModel{Name: modelName, Algorithm: algorithm, Cases: cases, Root: toXML(root)}
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("content: encode xml: %w", err)
	}
	return enc.Flush()
}

func toXML(n *core.ContentNode) *xmlNode {
	if n == nil {
		return nil
	}
	x := &xmlNode{
		ID: n.ID, Type: int(n.Type), Caption: n.Caption, Attribute: n.Attribute,
		Condition: n.Condition, Support: n.Support, Score: n.Score,
	}
	for _, s := range n.Distribution {
		x.States = append(x.States, xmlState(s))
	}
	for _, c := range n.Children {
		x.Children = append(x.Children, toXML(c))
	}
	return x
}
