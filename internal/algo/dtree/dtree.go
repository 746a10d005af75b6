// Package dtree implements the Decision_Trees mining service: per-target
// classification (entropy or Gini) and regression (variance-reduction) trees
// over tokenized casesets. It is the reference algorithm for the paper's
// running example ("USING [Decision_Trees_101]") and exercises every
// provider code path: discrete, continuous, discretized, and nested-table
// (existence) attributes, PREDICT columns, content browsing, and
// prediction-join histograms.
package dtree

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/par"
)

// ServiceName is the USING-clause name of this algorithm.
const ServiceName = "Decision_Trees"

// Algorithm implements core.Algorithm.
type Algorithm struct{}

// New returns the Decision_Trees service.
func New() *Algorithm { return &Algorithm{} }

// Name implements core.Algorithm.
func (*Algorithm) Name() string { return ServiceName }

// Description implements core.Algorithm.
func (*Algorithm) Description() string {
	return "Classification and regression trees with entropy/Gini splits and variance reduction"
}

// SupportsPredictTable implements core.Algorithm: nested TABLE targets are
// predicted with one binary tree per existence attribute.
func (*Algorithm) SupportsPredictTable() bool { return true }

// params with defaults.
type params struct {
	minSupport float64 // MINIMUM_SUPPORT: do not split nodes lighter than this
	maxDepth   int     // MAXIMUM_DEPTH
	penalty    float64 // COMPLEXITY_PENALTY: minimum split gain hurdle
	scoreGini  bool    // SCORE_METHOD = GINI (default ENTROPY)
	maxThresh  int     // max candidate thresholds per continuous attribute
}

func parseParams(p map[string]string) (params, error) {
	out := params{minSupport: 4, maxDepth: 16, penalty: 0.01, maxThresh: 32}
	for k, v := range p {
		switch strings.ToUpper(k) {
		case "MINIMUM_SUPPORT":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f < 1 {
				return out, fmt.Errorf("dtree: bad MINIMUM_SUPPORT %q", v)
			}
			out.minSupport = f
		case "MAXIMUM_DEPTH":
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return out, fmt.Errorf("dtree: bad MAXIMUM_DEPTH %q", v)
			}
			out.maxDepth = n
		case "COMPLEXITY_PENALTY":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f < 0 {
				return out, fmt.Errorf("dtree: bad COMPLEXITY_PENALTY %q", v)
			}
			out.penalty = f
		case "SCORE_METHOD":
			switch strings.ToUpper(v) {
			case "GINI":
				out.scoreGini = true
			case "ENTROPY":
				out.scoreGini = false
			default:
				return out, fmt.Errorf("dtree: bad SCORE_METHOD %q", v)
			}
		default:
			return out, fmt.Errorf("dtree: unknown parameter %q", k)
		}
	}
	return out, nil
}

// Model is a trained forest: one tree per target attribute.
type Model struct {
	space *core.AttributeSpace
	prm   params
	trees map[int]*node
	// targetOrder preserves the Train targets order for content rendering.
	targetOrder []int
	caseCount   int
	// partitions counts the selections split while training: one per
	// interior node, whatever the number of splits weighed.
	partitions int
}

// node is one tree node. Leaves have attr == -1.
type node struct {
	attr      int     // split attribute (-1 = leaf)
	threshold float64 // continuous split: <= goes left (child 0)
	children  []*node
	missing   int // child index for cases missing the split attribute

	support float64
	// classification leaf state: weighted counts per target state.
	classCounts []float64
	// regression leaf state.
	n, sum, sumsq float64
	// score is the split gain (interior) recorded for content browsing.
	score float64
	// pred is what Predict answers for a case routed to this leaf, built
	// once; every caller shares it and none may write to it.
	pred core.Prediction
}

// forkMinCases is the smallest selection whose children may grow on other
// goroutines: below it a subtree is too cheap to be worth a task.
const forkMinCases = 1024

// Train implements core.Algorithm. The trees of the targets, and the sibling
// subtrees of any node over at least forkMinCases cases, grow as tasks on at
// most workers goroutines. Each task sums over the same selection in the same
// order and children are stored by position, so the trees are the same at
// every worker count.
func (*Algorithm) Train(ctx context.Context, cs *core.Caseset, targets []int, p map[string]string, workers int) (core.TrainedModel, error) {
	prm, err := parseParams(p)
	if err != nil {
		return nil, err
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("dtree: model has no PREDICT columns")
	}
	m := &Model{space: cs.Space, prm: prm, trees: make(map[int]*node), targetOrder: targets, caseCount: cs.Len()}
	forks := par.NewForks(workers)
	trees, parts := make([]*node, len(targets)), make([]int, len(targets))
	err = forks.Run(ctx, len(targets), func(i int, _ bool) error {
		var err error
		trees[i], parts[i], err = m.growTree(ctx, forks, cs, targets[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, t := range targets {
		m.trees[t] = trees[i]
		m.partitions += parts[i]
	}
	return m, nil
}

// AlgorithmName implements core.TrainedModel.
func (m *Model) AlgorithmName() string { return ServiceName }

// Tree returns the root node of the tree for a target (testing/browsing).
func (m *Model) Tree(target int) *node { return m.trees[target] }

// inputAttrs lists attribute indexes usable as inputs for the given target.
func (m *Model) inputAttrs(target int) []int {
	ta := m.space.Attr(target)
	var in []int
	for i := range m.space.Attrs {
		a := m.space.Attr(i)
		if i == target || !a.IsInput {
			continue
		}
		// Attributes derived from the same nested row as the target (e.g.
		// Products(TV).Quantity when predicting Products(TV)) trivially
		// leak it; sibling rows remain legitimate inputs.
		if ta.NestedKey != "" && a.Column == ta.Column && a.NestedKey == ta.NestedKey {
			continue
		}
		in = append(in, i)
	}
	return in
}

// targetStates returns the number of class states for a discrete-like
// target: existence targets are binary (absent=0/present=1).
func targetStates(a *core.Attribute) int {
	if a.Kind == core.KindExistence {
		return 2
	}
	return len(a.States)
}

// grower builds the tree of one target. A selection's statistics are a
// vector — total weight then per-class weights for a discrete-like target,
// (n, Σy, Σy²) for a continuous one — and a candidate split is a table of
// such vectors, one row per branch. One pass over the cells of a node's cases
// fills the tables of every discrete-like input at once and gathers the
// values of every continuous one.
type grower struct {
	ctx    context.Context // the Train call's; a grower lives no longer
	forks  *par.Forks
	tmpl   *grower // the tree's grower before any buffers: forked tasks copy it
	m      *Model
	cs     *core.Caseset
	target int
	inputs []int
	// regress marks a continuous target; width is the vector length.
	regress bool
	width   int
	// class[i] is case i's target state (-1: missing), y[i] its target value
	// and leafW[i] the weight it adds to a leaf's distribution, read out of
	// the cases once for the whole tree, and shared by its tasks.
	class []int
	y     []float64
	leafW []float64
	// parts counts the selections this grower split (Model.partitions).
	parts int

	// in is indexed by attribute ordinal. For a discrete-like input, rows is
	// its number of states (exist: absent and present) and at the offset of
	// its first row in table; for a continuous one rows is 0 and at its index
	// in vals and have; for anything else at is -1. The three buffers are the
	// current node's, and each task has its own.
	in    []input
	table []float64
	vals  [][]float64 // values of a continuous input among the node's cases
	have  [][]int     // the cases that have them, in step with vals
}

type input struct {
	at, rows int
	exist    bool
}

// plan lays the node buffers out for the tree's inputs.
func (g *grower) plan() {
	g.in = make([]input, g.m.space.Len())
	for a := range g.in {
		g.in[a].at = -1
	}
	size := 0
	for _, a := range g.inputs {
		if sa := g.m.space.Attr(a); sa.Kind == core.KindContinuous {
			g.in[a].at = len(g.vals)
			g.vals, g.have = append(g.vals, nil), append(g.have, nil)
		} else if rows := targetStates(sa); rows >= 2 {
			g.in[a] = input{size, rows, sa.Kind == core.KindExistence}
			size += rows * g.width
		}
	}
	g.table = make([]float64, size)
}

func (m *Model) growTree(ctx context.Context, forks *par.Forks, cs *core.Caseset, target int) (*node, int, error) {
	ta := m.space.Attr(target)
	g := &grower{ctx: ctx, forks: forks, m: m, cs: cs, target: target, inputs: m.inputAttrs(target)}
	sel := make([]int, 0, cs.Len())
	switch {
	case ta.Kind == core.KindContinuous:
		g.regress, g.width = true, 3
		g.y, g.leafW = make([]float64, cs.Len()), cs.Weights
		for i := range g.y {
			var ok bool
			if g.y[i], ok = cs.Case(i).Continuous(target); ok {
				sel = append(sel, i)
			}
		}
	case ta.Kind == core.KindDiscrete && len(ta.States) == 0:
		return nil, 0, fmt.Errorf("dtree: target %q has no observed states", ta.Name)
	default: // discrete-like
		g.width = targetStates(ta) + 1
		g.class, g.leafW = make([]int, cs.Len()), make([]float64, cs.Len())
		for i := range g.class {
			c := cs.Case(i)
			g.leafW[i] = c.Weight * c.ProbOf(target)
			if ta.Kind == core.KindExistence {
				if c.Has(target) {
					g.class[i] = 1
				}
			} else if g.class[i] = c.Discrete(target); g.class[i] >= g.width-1 {
				g.class[i] = -1
			}
			if g.class[i] >= 0 {
				sel = append(sel, i)
			}
		}
	}
	g.tmpl = new(grower)
	*g.tmpl = *g
	g.plan()
	root, err := g.grow(sel, 0)
	return root, g.parts, err
}

// add counts case i into the statistics vector v.
func (g *grower) add(v []float64, i int) {
	w := g.cs.Weights[i]
	v[0] += w
	if g.regress {
		v[1] += g.y[i] * w
		v[2] += g.y[i] * g.y[i] * w
	} else {
		v[1+g.class[i]] += w
	}
}

// impurity is entropy/Gini for discrete-like targets, variance for
// continuous ones.
func (g *grower) impurity(v []float64) float64 {
	n := v[0]
	if n <= 0 {
		return 0
	}
	if g.regress {
		mean := v[1] / n
		return v[2]/n - mean*mean
	}
	counts := v[1:]
	if g.m.prm.scoreGini {
		gini := 1.0
		for _, c := range counts {
			p := c / n
			gini -= p * p
		}
		return gini
	}
	var h float64
	for _, c := range counts {
		if c > 0 {
			p := c / n
			h -= p * math.Log2(p)
		}
	}
	return h
}

// grow recursively builds a subtree over the selected case indexes.
func (g *grower) grow(sel []int, depth int) (*node, error) {
	select {
	case <-g.ctx.Done(): // not Err, which takes a lock on every node
		return nil, g.ctx.Err()
	default:
	}
	n := g.makeLeaf(sel)
	split, err := g.split(n, sel, depth)
	if !split {
		n.pred = g.m.leafPrediction(n, g.target)
	}
	return n, err
}

// split turns the leaf n over sel into an interior node if a split is worth
// it, growing the children; it reports whether it did.
func (g *grower) split(n *node, sel []int, depth int) (bool, error) {
	m := g.m
	if n.support < m.prm.minSupport || depth >= m.prm.maxDepth || pure(n, g.regress) {
		return false, nil
	}
	attr, thr, gain, ok := g.bestSplit(sel)
	if !ok || gain <= m.prm.penalty {
		return false, nil
	}
	parts, missingSel := g.partition(sel, attr, thr)
	// A split where all data lands in one part is useless. Missing values
	// follow the heaviest child.
	nonEmpty, heaviest := 0, 0
	for i, p := range parts {
		if len(p) > 0 {
			nonEmpty++
		}
		if len(p) > len(parts[heaviest]) {
			heaviest = i
		}
	}
	if nonEmpty < 2 {
		return false, nil
	}
	parts[heaviest] = append(parts[heaviest], missingSel...)

	n.attr = attr
	n.threshold = thr
	n.missing = heaviest
	n.score = gain
	n.children = make([]*node, len(parts))
	counts := make([]int, len(parts))
	task := func(i int, forked bool) error {
		switch { // the heaviest part is the last task, never forked
		case i == len(parts)-1:
			i = heaviest
		case i >= heaviest:
			i++
		}
		t := g // a task on this goroutine reuses g's buffers, idle meanwhile
		if forked {
			t = new(grower)
			*t = *g.tmpl
			t.plan()
		}
		var err error
		n.children[i], err = t.grow(parts[i], depth+1)
		if forked {
			counts[i] = t.parts
		}
		return err
	}
	var err error
	if len(sel) < forkMinCases {
		for i := 0; i < len(parts) && err == nil; i++ {
			err = task(i, false)
		}
	} else {
		err = g.forks.Run(g.ctx, len(parts), task)
	}
	for _, c := range counts {
		g.parts += c
	}
	return true, err
}

// makeLeaf computes leaf statistics over the selection.
func (g *grower) makeLeaf(sel []int) *node {
	n := &node{attr: -1}
	if !g.regress {
		n.classCounts = make([]float64, g.width-1)
	}
	for _, i := range sel {
		w := g.leafW[i]
		n.support += w
		if g.regress {
			n.n += w
			n.sum += g.y[i] * w
			n.sumsq += g.y[i] * g.y[i] * w
		} else {
			n.classCounts[g.class[i]] += w
		}
	}
	return n
}

func pure(n *node, regress bool) bool {
	if regress {
		if n.n <= 0 {
			return true
		}
		mean := n.sum / n.n
		return n.sumsq/n.n-mean*mean <= 1e-12
	}
	live := 0
	for _, c := range n.classCounts {
		if c > 0 {
			live++
		}
	}
	return live <= 1
}

// bestSplit scans every input attribute for the highest-gain split.
func (g *grower) bestSplit(sel []int) (attr int, thr float64, gain float64, ok bool) {
	w := g.width
	clear(g.table)
	for s := range g.vals {
		g.vals[s], g.have[s] = g.vals[s][:0], g.have[s][:0]
	}
	all := make([]float64, w)
	for _, i := range sel {
		g.add(all, i)
		for _, cell := range g.cs.Case(i).Cells() {
			switch in := g.in[cell.Attr]; {
			case in.at < 0:
			case in.rows == 0:
				g.vals[in.at] = append(g.vals[in.at], cell.Value())
				g.have[in.at] = append(g.have[in.at], i)
			case in.exist:
				g.add(g.table[in.at+w:in.at+2*w], i)
			case cell.Code >= 0 && int(cell.Code) < in.rows:
				g.add(g.table[in.at+int(cell.Code)*w:in.at+(int(cell.Code)+1)*w], i)
			}
		}
	}
	base := g.impurity(all)
	bestGain := 0.0
	bestAttr, bestThr := -1, 0.0
	for _, a := range g.inputs {
		in := g.in[a]
		if in.at < 0 {
			continue
		}
		var gain, t float64
		valid := true
		if in.rows == 0 {
			gain, t, valid = g.continuousGain(g.vals[in.at], g.have[in.at], base)
		} else {
			rows := g.table[in.at : in.at+in.rows*w]
			if in.exist {
				// No cell says "absent": it is everything not present.
				for x := range all {
					rows[x] = all[x] - rows[w+x]
				}
			}
			var total, acc float64
			for st := 0; st < in.rows; st++ {
				total, acc = g.addPart(rows[st*w:(st+1)*w], total, acc)
			}
			gain = gainOf(base, total, acc)
		}
		if valid && gain > bestGain {
			bestGain, bestAttr, bestThr = gain, a, t
		}
	}
	if bestAttr < 0 {
		return 0, 0, 0, false
	}
	return bestAttr, bestThr, bestGain, true
}

// addPart adds one branch's weight, and its weighted impurity, to a split's
// running totals; an empty branch adds nothing.
func (g *grower) addPart(v []float64, total, acc float64) (float64, float64) {
	if w := v[0]; w != 0 {
		return total + w, acc + w*g.impurity(v)
	}
	return total, acc
}

// gainOf is base impurity minus the weighted impurity of the branches.
func gainOf(base, total, acc float64) float64 {
	if total <= 0 {
		return 0
	}
	return base - acc/total
}

// continuousGain weighs splitting at up to maxThresh quantile midpoints of a
// continuous attribute, given its values among the node's cases and the cases
// that have them. One pass drops every case into the interval between two
// neighbouring candidates; the branches of a candidate are then prefix sums
// over the intervals, so no candidate costs a pass.
func (g *grower) continuousGain(vals []float64, have []int, base float64) (float64, float64, bool) {
	if len(vals) < 2 {
		return 0, 0, false
	}
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	var cands []float64
	step := max(len(sorted)/(g.m.prm.maxThresh+1), 1)
	for i := step; i < len(sorted); i += step {
		if sorted[i] != sorted[i-1] {
			cands = append(cands, (sorted[i]+sorted[i-1])/2)
		}
	}
	if len(cands) == 0 {
		lo, hi := sorted[0], sorted[len(sorted)-1]
		if hi <= lo {
			return 0, 0, false
		}
		cands = append(cands, (lo+hi)/2)
	}
	// Interval j holds the values in (cands[j-1], cands[j]].
	w := g.width
	table := make([]float64, (len(cands)+3)*w)
	left, right := table[:w], table[w:2*w]
	table = table[2*w:]
	for j, i := range have {
		iv := sort.SearchFloat64s(cands, vals[j])
		g.add(table[iv*w:(iv+1)*w], i)
		g.add(right, i)
	}
	bestGain, bestThr := -1.0, 0.0
	for j, t := range cands {
		for x, v := range table[j*w : (j+1)*w] {
			left[x] += v
			right[x] -= v
		}
		total, acc := g.addPart(left, 0, 0)
		total, acc = g.addPart(right, total, acc)
		if gain := gainOf(base, total, acc); gain > bestGain {
			bestGain, bestThr = gain, t
		}
	}
	return bestGain, bestThr, bestGain >= 0
}

// partition splits the selection by attribute value. For discrete-like
// attributes there is one part per state (existence: absent/present); for
// continuous ones two parts (<= thr, > thr). Cases with the attribute
// missing are returned separately.
func (g *grower) partition(sel []int, a int, thr float64) (parts [][]int, missing []int) {
	g.parts++
	sa := g.m.space.Attr(a)
	switch sa.Kind {
	case core.KindContinuous:
		parts = make([][]int, 2)
		for _, i := range sel {
			v, ok := g.cs.Case(i).Continuous(a)
			switch {
			case !ok:
				missing = append(missing, i)
			case v <= thr:
				parts[0] = append(parts[0], i)
			default:
				parts[1] = append(parts[1], i)
			}
		}
	case core.KindExistence:
		parts = make([][]int, 2)
		for _, i := range sel {
			if g.cs.Case(i).Has(a) {
				parts[1] = append(parts[1], i)
			} else {
				parts[0] = append(parts[0], i)
			}
		}
	default:
		parts = make([][]int, len(sa.States))
		for _, i := range sel {
			st := g.cs.Case(i).Discrete(a)
			if st < 0 || st >= len(parts) {
				missing = append(missing, i)
				continue
			}
			parts[st] = append(parts[st], i)
		}
	}
	return parts, missing
}

// Parameters implements core.ParameterDescriber.
func (*Algorithm) Parameters() []core.ParamDesc {
	return []core.ParamDesc{
		{Name: "MINIMUM_SUPPORT", Type: "DOUBLE", Default: "4",
			Description: "Minimum weighted case count required to split a node"},
		{Name: "MAXIMUM_DEPTH", Type: "LONG", Default: "16",
			Description: "Maximum number of split levels"},
		{Name: "COMPLEXITY_PENALTY", Type: "DOUBLE", Default: "0.01",
			Description: "Minimum split gain; higher values grow smaller trees"},
		{Name: "SCORE_METHOD", Type: "TEXT", Default: "ENTROPY",
			Description: "Split score for discrete targets: ENTROPY or GINI"},
	}
}
