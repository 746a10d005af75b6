// Package markov implements the Sequence_Analysis mining service — the
// "sequence analysis" capability the paper lists among provider services. It
// fits a first-order Markov chain over the ordered nested keys that the
// tokenizer records for TABLE columns carrying a SEQUENCE_TIME attribute,
// and predicts the next item of a partial sequence through PredictTable.
package markov

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
)

// ServiceName is the USING-clause name of this algorithm.
const ServiceName = "Sequence_Analysis"

// startState is the implicit before-first-item state.
const startState = "(start)"

// Algorithm implements core.Algorithm.
type Algorithm struct{}

// New returns the Sequence_Analysis service.
func New() *Algorithm { return &Algorithm{} }

// Name implements core.Algorithm.
func (*Algorithm) Name() string { return ServiceName }

// Description implements core.Algorithm.
func (*Algorithm) Description() string {
	return "First-order Markov chains over SEQUENCE_TIME-ordered nested tables"
}

// SupportsPredictTable implements core.Algorithm.
func (*Algorithm) SupportsPredictTable() bool { return true }

// Parameters implements core.ParameterDescriber.
func (*Algorithm) Parameters() []core.ParamDesc {
	return []core.ParamDesc{
		{Name: "PSEUDOCOUNT", Type: "DOUBLE", Default: "0.5",
			Description: "Additive smoothing for transition probabilities"},
	}
}

type params struct {
	laplace float64
}

func parseParams(p map[string]string) (params, error) {
	out := params{laplace: 0.5}
	for k, v := range p {
		switch strings.ToUpper(k) {
		case "PSEUDOCOUNT":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f < 0 {
				return out, fmt.Errorf("markov: bad PSEUDOCOUNT %q", v)
			}
			out.laplace = f
		default:
			return out, fmt.Errorf("markov: unknown parameter %q", k)
		}
	}
	return out, nil
}

// chain is a fitted Markov chain for one table column.
type chain struct {
	table string
	// states in first-seen order; index 0 is startState.
	states  []string
	stateIx map[string]int
	// counts[from][to] is the weighted transition count.
	counts [][]float64
	// rowTotals[from] caches the outgoing weight of each state.
	rowTotals []float64
	seqCount  int
}

// Model holds one chain per sequence-bearing TABLE column.
type Model struct {
	space     *core.AttributeSpace
	prm       params
	chains    map[string]*chain // lower-cased table column name
	order     []string
	caseCount int
}

// Train implements core.Algorithm. Targets are ignored; every table column
// with recorded sequences gets a chain.
func (*Algorithm) Train(ctx context.Context, cs *core.Caseset, targets []int, p map[string]string, _ int) (core.TrainedModel, error) {
	prm, err := parseParams(p)
	if err != nil {
		return nil, err
	}
	if cs.Len() == 0 {
		return nil, fmt.Errorf("markov: empty caseset")
	}
	m := &Model{space: cs.Space, prm: prm, chains: make(map[string]*chain), caseCount: cs.Len()}
	for ci := 0; ci < cs.Len(); ci++ {
		for _, seq := range cs.Case(ci).Sequences {
			table := seq.Table
			key := strings.ToLower(table)
			ch, ok := m.chains[key]
			if !ok {
				ch = &chain{table: table, stateIx: map[string]int{startState: 0}, states: []string{startState}}
				m.chains[key] = ch
				m.order = append(m.order, table)
			}
			ch.observe(seq.Keys, cs.Weights[ci])
		}
	}
	if len(m.chains) == 0 {
		return nil, fmt.Errorf("markov: no sequences observed — the model needs a nested TABLE " +
			"with a SEQUENCE_TIME column")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sort.Strings(m.order)
	for _, ch := range m.chains {
		ch.finalize()
	}
	return m, nil
}

func (ch *chain) stateOf(s string) int {
	if ix, ok := ch.stateIx[s]; ok {
		return ix
	}
	ix := len(ch.states)
	ch.states = append(ch.states, s)
	ch.stateIx[s] = ix
	for i := range ch.counts {
		ch.counts[i] = append(ch.counts[i], 0)
	}
	ch.counts = append(ch.counts, make([]float64, ix+1))
	return ix
}

func (ch *chain) observe(keys []string, w float64) {
	if ch.counts == nil {
		ch.counts = [][]float64{{0}}
	}
	prev := 0 // startState
	for _, k := range keys {
		cur := ch.stateOf(k)
		ch.counts[prev][cur] += w
		prev = cur
	}
	ch.seqCount++
}

func (ch *chain) finalize() {
	ch.rowTotals = make([]float64, len(ch.states))
	for i, row := range ch.counts {
		for _, c := range row {
			ch.rowTotals[i] += c
		}
	}
}

// transitionProb returns the smoothed P(to | from).
func (ch *chain) transitionProb(from, to int, laplace float64) float64 {
	k := float64(len(ch.states) - 1) // startState is never a destination
	if k <= 0 {
		return 0
	}
	return (ch.counts[from][to] + laplace) / (ch.rowTotals[from] + laplace*k)
}

// AlgorithmName implements core.TrainedModel.
func (m *Model) AlgorithmName() string { return ServiceName }

// Chain returns the fitted chain for a table column (testing/browsing).
func (m *Model) Chain(table string) (*chain, bool) {
	ch, ok := m.chains[strings.ToLower(table)]
	return ch, ok
}

// Predict implements core.TrainedModel; scalar prediction is not meaningful
// for a pure sequence model.
func (m *Model) Predict(core.Case, int) (core.Prediction, error) {
	return core.Prediction{}, fmt.Errorf("markov: %s predicts sequences; use Predict on the TABLE column", ServiceName)
}

// PredictTable implements core.TrainedModel: rank candidate next items given
// the case's recorded sequence (falling back to the start state for empty
// sequences). Items already in the sequence are not excluded — sequences may
// legitimately revisit states.
func (m *Model) PredictTable(c core.Case, tableColumn string) (core.Prediction, error) {
	ch, ok := m.chains[strings.ToLower(tableColumn)]
	if !ok {
		return core.Prediction{}, fmt.Errorf("markov: no sequence chain for table column %q", tableColumn)
	}
	from := 0
	if seq := c.Sequence(ch.table); len(seq) > 0 {
		last := seq[len(seq)-1]
		if ix, ok := ch.stateIx[last]; ok {
			from = ix
		}
	}
	var p core.Prediction
	for to := 1; to < len(ch.states); to++ {
		p.Histogram = append(p.Histogram, core.Bucket{
			Value:   ch.states[to],
			Prob:    ch.transitionProb(from, to, m.prm.laplace),
			Support: ch.counts[from][to],
		})
	}
	p.SortHistogram()
	return p, nil
}

// Content implements core.TrainedModel: one node per chain, one child per
// state carrying its outgoing transition distribution.
func (m *Model) Content() *core.ContentNode {
	root := &core.ContentNode{Type: core.NodeModel, Caption: ServiceName, Support: float64(m.caseCount)}
	for _, table := range m.order {
		ch := m.chains[strings.ToLower(table)]
		tn := root.AddChild(&core.ContentNode{
			Type:    core.NodeTree,
			Caption: fmt.Sprintf("%s (%d sequences, %d states)", table, ch.seqCount, len(ch.states)-1),
			Support: float64(ch.seqCount),
		})
		for from, name := range ch.states {
			sn := tn.AddChild(&core.ContentNode{
				Type:      core.NodeInterior,
				Caption:   name,
				Attribute: table,
				Support:   ch.rowTotals[from],
			})
			type tr struct {
				to   int
				prob float64
			}
			var trs []tr
			for to := 1; to < len(ch.states); to++ {
				if ch.counts[from][to] > 0 {
					trs = append(trs, tr{to, ch.transitionProb(from, to, m.prm.laplace)})
				}
			}
			sort.Slice(trs, func(i, j int) bool { return trs[i].prob > trs[j].prob })
			for _, t := range trs {
				sn.Distribution = append(sn.Distribution, core.StateStat{
					Value:   fmt.Sprintf("-> %s", ch.states[t.to]),
					Prob:    t.prob,
					Support: ch.counts[from][t.to],
				})
			}
		}
	}
	root.AssignIDs(1)
	return root
}
