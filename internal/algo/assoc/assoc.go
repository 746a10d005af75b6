// Package assoc implements the Association_Rules mining service: Apriori
// frequent-itemset mining over the existence attributes produced by nested
// TABLE columns, plus single-consequent rule generation. Its PredictTable
// answers the paper's "set of products that the customer is likely to buy"
// example query.
package assoc

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
)

// ServiceName is the USING-clause name of this algorithm.
const ServiceName = "Association_Rules"

// Algorithm implements core.Algorithm.
type Algorithm struct{}

// New returns the Association_Rules service.
func New() *Algorithm { return &Algorithm{} }

// Name implements core.Algorithm.
func (*Algorithm) Name() string { return ServiceName }

// Description implements core.Algorithm.
func (*Algorithm) Description() string {
	return "Apriori frequent itemsets and association rules over nested-table items"
}

// SupportsPredictTable implements core.Algorithm.
func (*Algorithm) SupportsPredictTable() bool { return true }

type params struct {
	minSupport  float64 // <1: fraction of case weight; >=1: absolute weight
	minConf     float64
	maxSetSize  int
	maxItemsets int
}

func parseParams(p map[string]string) (params, error) {
	out := params{minSupport: 0.03, minConf: 0.4, maxSetSize: 3, maxItemsets: 10000}
	for k, v := range p {
		switch strings.ToUpper(k) {
		case "MINIMUM_SUPPORT":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f <= 0 {
				return out, fmt.Errorf("assoc: bad MINIMUM_SUPPORT %q", v)
			}
			out.minSupport = f
		case "MINIMUM_PROBABILITY":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f <= 0 || f > 1 {
				return out, fmt.Errorf("assoc: bad MINIMUM_PROBABILITY %q", v)
			}
			out.minConf = f
		case "MAXIMUM_ITEMSET_SIZE":
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return out, fmt.Errorf("assoc: bad MAXIMUM_ITEMSET_SIZE %q", v)
			}
			out.maxSetSize = n
		case "MAXIMUM_ITEMSET_COUNT":
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return out, fmt.Errorf("assoc: bad MAXIMUM_ITEMSET_COUNT %q", v)
			}
			out.maxItemsets = n
		default:
			return out, fmt.Errorf("assoc: unknown parameter %q", k)
		}
	}
	return out, nil
}

// Itemset is a frequent itemset: sorted attribute indexes plus support.
type Itemset struct {
	Items   []int
	Support float64
}

// Rule is antecedent → consequent with confidence and lift.
type Rule struct {
	Antecedent []int
	Consequent int
	Support    float64 // weight of cases containing antecedent ∪ consequent
	Confidence float64
	Lift       float64
}

// Model is the trained rule set.
type Model struct {
	space     *core.AttributeSpace
	prm       params
	itemsets  []Itemset
	rules     []Rule
	itemSupp  map[int]float64
	total     float64
	caseCount int
	// rulesByConsequent indexes rules for fast recommendation.
	rulesByConsequent map[int][]int
}

// Train implements core.Algorithm. Targets are ignored: itemsets form over
// every existence attribute; PredictTable filters by table column.
func (*Algorithm) Train(ctx context.Context, cs *core.Caseset, targets []int, p map[string]string, _ int) (core.TrainedModel, error) {
	prm, err := parseParams(p)
	if err != nil {
		return nil, err
	}
	if cs.Len() == 0 {
		return nil, fmt.Errorf("assoc: empty caseset")
	}
	// Item universe: every existence attribute.
	var items []int
	for i := range cs.Space.Attrs {
		if cs.Space.Attr(i).Kind == core.KindExistence {
			items = append(items, i)
		}
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("assoc: model has no nested TABLE (existence) attributes to mine")
	}
	m := &Model{space: cs.Space, prm: prm, itemSupp: make(map[int]float64),
		caseCount: cs.Len(), rulesByConsequent: make(map[int][]int)}

	// Transactions.
	type txn struct {
		items []int
		w     float64
	}
	txns := make([]txn, 0, cs.Len())
	for ci := 0; ci < cs.Len(); ci++ {
		c := cs.Case(ci)
		var t []int
		for _, it := range items {
			if c.Has(it) {
				t = append(t, it)
			}
		}
		sort.Ints(t)
		txns = append(txns, txn{items: t, w: c.Weight})
		m.total += c.Weight
	}
	minW := prm.minSupport
	if minW < 1 {
		minW = prm.minSupport * m.total
	}

	// L1.
	for _, t := range txns {
		for _, it := range t.items {
			m.itemSupp[it] += t.w
		}
	}
	var frequent []Itemset
	for _, it := range items {
		if m.itemSupp[it] >= minW {
			frequent = append(frequent, Itemset{Items: []int{it}, Support: m.itemSupp[it]})
		}
	}
	sort.Slice(frequent, func(i, j int) bool { return frequent[i].Items[0] < frequent[j].Items[0] })
	m.itemsets = append(m.itemsets, frequent...)

	// Lk from Lk-1.
	prev := frequent
	for size := 2; size <= prm.maxSetSize && len(prev) > 1 && len(m.itemsets) < prm.maxItemsets; size++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cands := candidates(prev)
		if len(cands) == 0 {
			break
		}
		counts := make([]float64, len(cands))
		for _, t := range txns {
			if len(t.items) < size {
				continue
			}
			for i, cand := range cands {
				if containsAll(t.items, cand) {
					counts[i] += t.w
				}
			}
		}
		var next []Itemset
		for i, cand := range cands {
			if counts[i] >= minW {
				next = append(next, Itemset{Items: cand, Support: counts[i]})
			}
		}
		m.itemsets = append(m.itemsets, next...)
		if len(m.itemsets) > prm.maxItemsets {
			m.itemsets = m.itemsets[:prm.maxItemsets]
			next = nil
		}
		prev = next
	}

	m.generateRules()
	return m, nil
}

// candidates joins k-1 itemsets sharing a prefix (classic Apriori join).
func candidates(prev []Itemset) [][]int {
	var out [][]int
	seen := make(map[string]bool)
	for i := 0; i < len(prev); i++ {
		for j := i + 1; j < len(prev); j++ {
			a, b := prev[i].Items, prev[j].Items
			if !samePrefix(a, b) {
				continue
			}
			cand := make([]int, len(a)+1)
			copy(cand, a)
			last := b[len(b)-1]
			if last <= a[len(a)-1] {
				cand[len(a)], cand[len(a)-1] = a[len(a)-1], last
				sort.Ints(cand)
			} else {
				cand[len(a)] = last
			}
			k := key(cand)
			if !seen[k] {
				seen[k] = true
				out = append(out, cand)
			}
		}
	}
	return out
}

func samePrefix(a, b []int) bool {
	for i := 0; i < len(a)-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func key(items []int) string {
	var b strings.Builder
	for _, it := range items {
		fmt.Fprintf(&b, "%d,", it)
	}
	return b.String()
}

// containsAll reports whether sorted transaction t contains all of sorted
// cand.
func containsAll(t, cand []int) bool {
	i := 0
	for _, c := range cand {
		for i < len(t) && t[i] < c {
			i++
		}
		if i >= len(t) || t[i] != c {
			return false
		}
		i++
	}
	return true
}

func (m *Model) generateRules() {
	suppOf := make(map[string]float64, len(m.itemsets))
	for _, is := range m.itemsets {
		suppOf[key(is.Items)] = is.Support
	}
	for _, is := range m.itemsets {
		if len(is.Items) < 2 {
			continue
		}
		for k, cons := range is.Items {
			ante := make([]int, 0, len(is.Items)-1)
			ante = append(ante, is.Items[:k]...)
			ante = append(ante, is.Items[k+1:]...)
			anteSupp, ok := suppOf[key(ante)]
			if !ok || anteSupp <= 0 {
				continue
			}
			conf := is.Support / anteSupp
			if conf < m.prm.minConf {
				continue
			}
			consP := m.itemSupp[cons] / m.total
			lift := 0.0
			if consP > 0 {
				lift = conf / consP
			}
			m.rules = append(m.rules, Rule{
				Antecedent: ante, Consequent: cons,
				Support: is.Support, Confidence: conf, Lift: lift,
			})
			m.rulesByConsequent[cons] = append(m.rulesByConsequent[cons], len(m.rules)-1)
		}
	}
}

// AlgorithmName implements core.TrainedModel.
func (m *Model) AlgorithmName() string { return ServiceName }

// Itemsets returns the frequent itemsets (for tests and content).
func (m *Model) Itemsets() []Itemset { return m.itemsets }

// Rules returns the generated rules.
func (m *Model) Rules() []Rule { return m.rules }

// Predict implements core.TrainedModel: P(present) for an existence target.
func (m *Model) Predict(c core.Case, target int) (core.Prediction, error) {
	if target < 0 || target >= m.space.Len() || m.space.Attr(target).Kind != core.KindExistence {
		return core.Prediction{}, fmt.Errorf("assoc: %s can only predict nested-table items", ServiceName)
	}
	prob := m.scoreItem(c, target)
	pr := core.Prediction{Histogram: []core.Bucket{
		{Value: "present", Prob: prob, Support: m.itemSupp[target]},
		{Value: "absent", Prob: 1 - prob},
	}}
	pr.SortHistogram()
	return pr, nil
}

// scoreItem scores a candidate item for a case: the best confidence among
// rules whose antecedent is satisfied, falling back to item popularity.
func (m *Model) scoreItem(c core.Case, item int) float64 {
	best := 0.0
	for _, ri := range m.rulesByConsequent[item] {
		r := m.rules[ri]
		ok := true
		for _, a := range r.Antecedent {
			if !c.Has(a) {
				ok = false
				break
			}
		}
		if ok && r.Confidence > best {
			best = r.Confidence
		}
	}
	if best > 0 {
		return best
	}
	if m.total > 0 {
		return m.itemSupp[item] / m.total
	}
	return 0
}

// PredictTable implements core.TrainedModel: rank items of the table column
// not already present in the case.
func (m *Model) PredictTable(c core.Case, tableColumn string) (core.Prediction, error) {
	attrs := m.space.TableAttrs(tableColumn)
	if len(attrs) == 0 {
		return core.Prediction{}, fmt.Errorf("assoc: no items for table column %q", tableColumn)
	}
	var p core.Prediction
	for _, a := range attrs {
		if c.Has(a) {
			continue
		}
		p.Histogram = append(p.Histogram, core.Bucket{
			Value:   m.space.Attr(a).NestedKey,
			Prob:    m.scoreItem(c, a),
			Support: m.itemSupp[a],
		})
	}
	p.SortHistogram()
	return p, nil
}

// Content implements core.TrainedModel: ITEMSET nodes then RULE nodes.
func (m *Model) Content() *core.ContentNode {
	root := &core.ContentNode{Type: core.NodeModel, Caption: ServiceName, Support: float64(m.caseCount)}
	for _, is := range m.itemsets {
		root.AddChild(&core.ContentNode{
			Type:    core.NodeItemset,
			Caption: m.itemsetCaption(is.Items),
			Support: is.Support,
		})
	}
	for _, r := range m.rules {
		root.AddChild(&core.ContentNode{
			Type:    core.NodeRule,
			Caption: fmt.Sprintf("%s -> %s", m.itemsetCaption(r.Antecedent), m.itemName(r.Consequent)),
			Support: r.Support,
			Score:   r.Confidence,
			Distribution: []core.StateStat{{
				Value:   m.itemName(r.Consequent),
				Prob:    r.Confidence,
				Support: r.Support,
			}},
		})
	}
	root.AssignIDs(1)
	return root
}

func (m *Model) itemsetCaption(items []int) string {
	parts := make([]string, len(items))
	for i, it := range items {
		parts[i] = m.itemName(it)
	}
	return strings.Join(parts, ", ")
}

func (m *Model) itemName(item int) string {
	a := m.space.Attr(item)
	if a.NestedKey != "" {
		return a.NestedKey
	}
	return a.Name
}

// Parameters implements core.ParameterDescriber.
func (*Algorithm) Parameters() []core.ParamDesc {
	return []core.ParamDesc{
		{Name: "MINIMUM_SUPPORT", Type: "DOUBLE", Default: "0.03",
			Description: "Itemset support threshold: fraction (<1) or absolute weight"},
		{Name: "MINIMUM_PROBABILITY", Type: "DOUBLE", Default: "0.4",
			Description: "Rule confidence threshold"},
		{Name: "MAXIMUM_ITEMSET_SIZE", Type: "LONG", Default: "3",
			Description: "Largest itemset considered"},
		{Name: "MAXIMUM_ITEMSET_COUNT", Type: "LONG", Default: "10000",
			Description: "Cap on the number of stored itemsets"},
	}
}
