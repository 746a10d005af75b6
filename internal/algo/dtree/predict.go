package dtree

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
)

// Predict implements core.TrainedModel: route the case to a leaf of the
// target's tree and return the leaf's distribution as a histogram. The
// prediction was built with the tree and is shared by every case that reaches
// the leaf: callers read it, never write it.
func (m *Model) Predict(c core.Case, target int) (core.Prediction, error) {
	tree, ok := m.trees[target]
	if !ok {
		return core.Prediction{}, fmt.Errorf("dtree: attribute %q is not a prediction target",
			m.space.Attr(target).Name)
	}
	return m.route(tree, c).pred, nil
}

// route walks the case down to a leaf.
func (m *Model) route(n *node, c core.Case) *node {
	for n.attr >= 0 {
		sa := m.space.Attr(n.attr)
		var idx int
		switch sa.Kind {
		case core.KindContinuous:
			v, ok := c.Continuous(n.attr)
			switch {
			case !ok:
				idx = n.missing
			case v <= n.threshold:
				idx = 0
			default:
				idx = 1
			}
		default:
			cell, has := c.Cell(n.attr)
			if idx = stateOf(sa, cell, has, len(n.children)); idx < 0 {
				idx = n.missing
			}
		}
		n = n.children[idx]
	}
	return n
}

// leafPrediction converts leaf statistics into a Prediction.
func (m *Model) leafPrediction(leaf *node, target int) core.Prediction {
	ta := m.space.Attr(target)
	var p core.Prediction
	if ta.Kind == core.KindContinuous {
		if leaf.n <= 0 {
			return core.Prediction{}
		}
		mean := leaf.sum / leaf.n
		variance := leaf.sumsq/leaf.n - mean*mean
		if variance < 0 {
			variance = 0
		}
		p.Estimate = mean
		p.Prob = 1
		p.Support = leaf.support
		p.Stdev = math.Sqrt(variance)
		p.Histogram = []core.Bucket{{Value: mean, Prob: 1, Support: leaf.support, Variance: variance}}
		return p
	}
	// Discrete-like: Laplace-smoothed state distribution.
	k := float64(len(leaf.classCounts))
	total := leaf.support + k
	p.Histogram = make([]core.Bucket, 0, len(leaf.classCounts))
	for st, cnt := range leaf.classCounts {
		p.Histogram = append(p.Histogram, core.Bucket{
			Value:   stateValue(ta, st),
			Prob:    (cnt + 1) / total,
			Support: cnt,
		})
	}
	p.SortHistogram()
	return p
}

// stateValue renders a class state as the value a SELECT would show.
func stateValue(a *core.Attribute, st int) string {
	if a.Kind == core.KindExistence {
		if st == 1 {
			return "present"
		}
		return "absent"
	}
	if st >= 0 && st < len(a.States) {
		return a.States[st]
	}
	return fmt.Sprintf("state%d", st)
}

// PredictTable implements core.TrainedModel: rank the nested keys of a
// predicted TABLE column by P(present), excluding keys already in the case.
func (m *Model) PredictTable(c core.Case, tableColumn string) (core.Prediction, error) {
	attrs := m.space.TableAttrs(tableColumn)
	if len(attrs) == 0 {
		return core.Prediction{}, fmt.Errorf("dtree: no trained attributes for table column %q", tableColumn)
	}
	var p core.Prediction
	for _, a := range attrs {
		if c.Has(a) {
			continue // already present in the input basket
		}
		tree, ok := m.trees[a]
		if !ok {
			continue
		}
		leaf := m.route(tree, c)
		if len(leaf.classCounts) != 2 {
			continue
		}
		total := leaf.support + 2
		p.Histogram = append(p.Histogram, core.Bucket{
			Value:   m.space.Attr(a).NestedKey,
			Prob:    (leaf.classCounts[1] + 1) / total,
			Support: leaf.classCounts[1],
		})
	}
	p.SortHistogram()
	return p, nil
}

// Content implements core.TrainedModel: a model root with one TREE child per
// target, each expanding into interior and distribution nodes.
func (m *Model) Content() *core.ContentNode {
	root := &core.ContentNode{
		Type:    core.NodeModel,
		Caption: ServiceName,
		Support: float64(m.caseCount),
	}
	for _, t := range m.targetOrder {
		tree, ok := m.trees[t]
		if !ok {
			continue
		}
		ta := m.space.Attr(t)
		tn := root.AddChild(&core.ContentNode{
			Type:      core.NodeTree,
			Caption:   ta.Name,
			Attribute: ta.Name,
			Support:   tree.support,
		})
		m.addContent(tn, tree, t, "All")
	}
	root.AssignIDs(1)
	return root
}

func (m *Model) addContent(parent *core.ContentNode, n *node, target int, condition string) {
	ta := m.space.Attr(target)
	cn := &core.ContentNode{
		Caption:   condition,
		Condition: condition,
		Attribute: ta.Name,
		Support:   n.support,
		Score:     n.score,
	}
	if n.attr < 0 {
		cn.Type = core.NodeDistribution
		cn.Distribution = m.leafDistribution(n, ta)
		parent.AddChild(cn)
		return
	}
	cn.Type = core.NodeInterior
	parent.AddChild(cn)
	sa := m.space.Attr(n.attr)
	for i, child := range n.children {
		m.addContent(cn, child, target, childCondition(sa, n, i))
	}
}

func childCondition(sa *core.Attribute, n *node, i int) string {
	switch sa.Kind {
	case core.KindContinuous:
		if i == 0 {
			return fmt.Sprintf("[%s] <= %g", sa.Name, n.threshold)
		}
		return fmt.Sprintf("[%s] > %g", sa.Name, n.threshold)
	case core.KindExistence:
		if i == 1 {
			return fmt.Sprintf("[%s] = present", sa.Name)
		}
		return fmt.Sprintf("[%s] = absent", sa.Name)
	default:
		if i < len(sa.States) {
			return fmt.Sprintf("[%s] = '%s'", sa.Name, sa.States[i])
		}
		return fmt.Sprintf("[%s] = missing", sa.Name)
	}
}

func (m *Model) leafDistribution(n *node, ta *core.Attribute) []core.StateStat {
	if ta.Kind == core.KindContinuous {
		if n.n <= 0 {
			return nil
		}
		mean := n.sum / n.n
		variance := n.sumsq/n.n - mean*mean
		return []core.StateStat{{
			Value:    fmt.Sprintf("%g", mean),
			Support:  n.support,
			Prob:     1,
			Variance: math.Max(variance, 0),
		}}
	}
	out := make([]core.StateStat, 0, len(n.classCounts))
	for st, cnt := range n.classCounts {
		if n.support > 0 {
			out = append(out, core.StateStat{
				Value:   stateValue(ta, st),
				Support: cnt,
				Prob:    cnt / n.support,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Support > out[j].Support })
	return out
}

// Depth returns the number of split levels in the tree for a target (a
// leaf-only tree has depth 0), matching the MAXIMUM_DEPTH parameter.
func (m *Model) Depth(target int) int {
	var rec func(*node) int
	rec = func(n *node) int {
		if n == nil || n.attr < 0 {
			return 0
		}
		best := 0
		for _, c := range n.children {
			if d := rec(c); d > best {
				best = d
			}
		}
		return best + 1
	}
	return rec(m.trees[target])
}

// LeafCount returns the number of leaves in the tree for a target.
func (m *Model) LeafCount(target int) int {
	var rec func(*node) int
	rec = func(n *node) int {
		if n == nil {
			return 0
		}
		if n.attr < 0 {
			return 1
		}
		total := 0
		for _, c := range n.children {
			total += rec(c)
		}
		return total
	}
	return rec(m.trees[target])
}
