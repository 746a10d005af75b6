package content

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rowset"
)

func sampleGraph() *core.ContentNode {
	root := &core.ContentNode{Type: core.NodeModel, Caption: "Decision_Trees", Support: 100}
	tree := root.AddChild(&core.ContentNode{Type: core.NodeTree, Caption: "Age", Attribute: "Age", Support: 100})
	split := tree.AddChild(&core.ContentNode{
		Type: core.NodeInterior, Caption: "All", Condition: "All", Attribute: "Age",
		Support: 100, Score: 0.8,
	})
	split.AddChild(&core.ContentNode{
		Type: core.NodeDistribution, Caption: "[Gender] = 'Male'", Condition: "[Gender] = 'Male'",
		Attribute: "Age", Support: 60,
		Distribution: []core.StateStat{
			{Value: "young", Support: 40, Prob: 2.0 / 3},
			{Value: "old", Support: 20, Prob: 1.0 / 3},
		},
	})
	split.AddChild(&core.ContentNode{
		Type: core.NodeDistribution, Caption: "[Gender] = 'Female'", Condition: "[Gender] = 'Female'",
		Attribute: "Age", Support: 40,
		Distribution: []core.StateStat{
			{Value: "young", Support: 10, Prob: 0.25},
			{Value: "old", Support: 30, Prob: 0.75, Variance: 0.1},
		},
	})
	root.AssignIDs(1)
	return root
}

func TestRowsetFlattening(t *testing.T) {
	rs, err := Rowset("Age Prediction", sampleGraph())
	if err != nil {
		t.Fatalf("Rowset: %v", err)
	}
	if rs.Len() != 5 {
		t.Fatalf("rows = %d want 5", rs.Len())
	}
	// First row is the root with no parent.
	r0 := rs.Row(0)
	if r0[1] != "node0001" || r0[8] != "" {
		t.Errorf("root row = %v", r0)
	}
	if r0[2] != int64(core.NodeModel) {
		t.Errorf("root type = %v", r0[2])
	}
	// All rows carry the model name; parents precede children.
	seen := map[string]bool{}
	for i := 0; i < rs.Len(); i++ {
		r := rs.Row(i)
		if r[0] != "Age Prediction" {
			t.Errorf("model name = %v", r[0])
		}
		seen[r[1].(string)] = true
		if p := r[8].(string); p != "" && !seen[p] {
			t.Errorf("child %v appears before parent %v", r[1], p)
		}
	}
	// Leaf distribution is a nested table.
	last := rs.Row(4)
	dist := last[10].(*rowset.Rowset)
	if dist.Len() != 2 {
		t.Fatalf("distribution rows = %d", dist.Len())
	}
	if v, _ := dist.Value(1, "ATTRIBUTE_VALUE"); v != "old" {
		t.Errorf("dist value = %v", v)
	}
	if v, _ := dist.Value(1, "VARIANCE"); v != 0.1 {
		t.Errorf("dist variance = %v", v)
	}
	// Children cardinality.
	if rs.Row(2)[9] != int64(2) {
		t.Errorf("cardinality = %v", rs.Row(2)[9])
	}
}

func TestRowsetEmptyGraph(t *testing.T) {
	rs, err := Rowset("m", nil)
	if err != nil {
		t.Fatalf("Rowset: %v", err)
	}
	if rs.Len() != 0 {
		t.Error("nil graph must yield empty rowset")
	}
}

func TestXMLRoundTrip(t *testing.T) {
	root := sampleGraph()
	var buf bytes.Buffer
	if err := WriteXML(&buf, "Age Prediction", "Decision_Trees", 100, root); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<MiningModel", `name="Age Prediction"`, `algorithm="Decision_Trees"`, "<State", `value="young"`} {
		if !strings.Contains(out, want) {
			t.Errorf("xml missing %q", want)
		}
	}
	name, algo, cases, got, err := readXML(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if name != "Age Prediction" || algo != "Decision_Trees" || cases != 100 {
		t.Errorf("header = %q %q %d", name, algo, cases)
	}
	if got.Count() != root.Count() {
		t.Fatalf("node count = %d want %d", got.Count(), root.Count())
	}
	// Compare a deep leaf.
	want := root.Find(func(n *core.ContentNode) bool { return n.Caption == "[Gender] = 'Female'" })
	have := got.Find(func(n *core.ContentNode) bool { return n.Caption == "[Gender] = 'Female'" })
	if have == nil || have.Support != want.Support || len(have.Distribution) != 2 {
		t.Fatalf("leaf = %+v", have)
	}
	if have.Distribution[1].Variance != 0.1 || have.Distribution[1].Prob != 0.75 {
		t.Errorf("leaf distribution = %+v", have.Distribution)
	}
	if have.ID != want.ID {
		t.Errorf("IDs differ: %d vs %d", have.ID, want.ID)
	}
}

func TestReadXMLErrors(t *testing.T) {
	if _, _, _, _, err := readXML(strings.NewReader("not xml")); err == nil {
		t.Error("bad xml must fail")
	}
}

// readXML parses a document produced by WriteXML back into a content graph,
// returning the model name, algorithm, case count, and root node: the reader
// side of the PMML round trip.
func readXML(r io.Reader) (name, algorithm string, cases int, root *core.ContentNode, err error) {
	var doc xmlModel
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return "", "", 0, nil, fmt.Errorf("content: decode xml: %w", err)
	}
	return doc.Name, doc.Algorithm, doc.Cases, fromXML(doc.Root), nil
}

func fromXML(x *xmlNode) *core.ContentNode {
	if x == nil {
		return nil
	}
	n := &core.ContentNode{
		ID: x.ID, Type: core.NodeType(x.Type), Caption: x.Caption,
		Attribute: x.Attribute, Condition: x.Condition,
		Support: x.Support, Score: x.Score,
	}
	for _, s := range x.States {
		n.Distribution = append(n.Distribution, core.StateStat(s))
	}
	for _, c := range x.Children {
		n.Children = append(n.Children, fromXML(c))
	}
	return n
}
