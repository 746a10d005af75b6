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

// Train implements core.Algorithm. Every continuous input is sorted once, up
// front; then the trees of the targets, and the sibling subtrees of any node
// over at least forkMinCases cases, grow as tasks on at most workers
// goroutines. Each task sums over the same cases in the same order and
// children are stored by position, so the trees are the same at every worker
// count.
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
	sorted, err := presort(ctx, forks, cs)
	if err != nil {
		return nil, err
	}
	trees, parts := make([]*node, len(targets)), make([]int, len(targets))
	err = forks.Run(ctx, len(targets), func(i int, _ bool) error {
		var err error
		trees[i], parts[i], err = m.growTree(ctx, forks, cs, sorted, targets[i])
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

// entry is a case's value of a continuous input: the case and its cell's index
// in the arena.
type entry struct {
	v    float64
	i, c int32
}

// presort lists, for every continuous input attribute, the entries of the
// cases that have a value, sorted by value — NaN first, as slices.Sort orders
// floats — then by case; any other attribute's list is nil. The attributes
// sort as tasks on forks.
func presort(ctx context.Context, forks *par.Forks, cs *core.Caseset) ([][]entry, error) {
	sorted := make([][]entry, cs.Space.Len())
	var conts []int
	for a := range sorted {
		if sa := cs.Space.Attr(a); sa.IsInput && sa.Kind == core.KindContinuous {
			conts, sorted[a] = append(conts, a), []entry{}
		}
	}
	for i, c := 0, int32(0); i < cs.Len() && len(conts) > 0; i++ {
		for ; c < cs.Ends[i]; c++ {
			if cell := &cs.Cells[c]; sorted[cell.Attr] != nil {
				sorted[cell.Attr] = append(sorted[cell.Attr], entry{cell.Value(), int32(i), c})
			}
		}
	}
	return sorted, forks.Run(ctx, len(conts), func(k int, _ bool) error {
		radixSort(sorted[conts[k]])
		return nil
	})
}

// sortKey maps a value to a key whose unsigned order is the value's, with NaN
// first and −0 equal to +0.
func sortKey(v float64) uint64 {
	b := math.Float64bits(v)
	switch {
	case v != v:
		return 0
	case v == 0 || b>>63 == 0:
		return b | 1<<63
	}
	return ^b
}

// radixSort orders entries gathered in case order by sortKey, stably: one
// counting pass per byte of the key, skipping the bytes all keys share.
func radixSort(l []entry) {
	if len(l) < 2 {
		return
	}
	var counts [8][256]int
	for _, e := range l {
		for d, k := 0, sortKey(e.v); d < 8; d++ {
			counts[d][byte(k>>(8*d))]++
		}
	}
	src, dst := l, make([]entry, len(l))
	for d := range counts {
		c := &counts[d]
		if c[byte(sortKey(l[0].v)>>(8*d))] == len(l) {
			continue
		}
		for b, pos := 0, 0; b < len(c); b++ {
			c[b], pos = pos, pos+c[b]
		}
		for _, e := range src {
			b := byte(sortKey(e.v) >> (8 * d))
			dst[c[b]], c[b] = e, c[b]+1
		}
		src, dst = dst, src
	}
	copy(l, src)
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
// fills the tables of every discrete-like input and the intervals of every
// continuous one at once; a continuous input's candidates, and the interval
// of each of its values, are read off its sorted list first.
//
// A node owns a run of sel, its cases, and a run of every list, the entries
// of its cases that have that input. A split reorders each run in place, so
// that every child's cases are one run in the order they were, and sibling
// subtrees own disjoint runs: they may grow on other goroutines.
type grower struct {
	ctx    context.Context // the Train call's; a grower lives no longer
	forks  *par.Forks
	tmpl   *grower // the tree's grower as planned: a forked task copies it and takes its own node buffers
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
	// in lists; for anything else at is -1.
	in []input
	// lists[k] is continuous input k's entries among the tree's cases, in
	// presort order within each node's run; side[i] is the child case i goes
	// to at the split of the node that holds it, and iv[c] the interval of
	// the value in arena cell c among its input's candidates at the node that
	// holds its case (a node has at most 2·maxThresh+1 candidates, so a byte
	// holds it). All are the tree's, shared by its tasks.
	lists [][]entry
	side  []int32
	iv    []uint8

	// The node buffers, each task's own: the discrete-like inputs' tables and
	// the node's statistics, the continuous inputs' candidates (input k's from
	// off[k]) and intervals, and a split's counts and scratch.
	table, cands, ivs []float64
	off               []int
	cnt, tmp          []int32
	tmpE              []entry
}

type input struct {
	at, rows int
	exist    bool
}

// sized returns buf resliced to n, reallocated when too small.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// plan lays out the tree's inputs and copies the lists of its continuous ones,
// keeping the entries of the cases the root holds (side 0).
func (g *grower) plan(sorted [][]entry) {
	g.in = make([]input, g.m.space.Len())
	for a := range g.in {
		g.in[a].at = -1
	}
	size := 0
	for _, a := range g.inputs {
		if sa := g.m.space.Attr(a); sa.Kind == core.KindContinuous {
			g.in[a].at = len(g.lists)
			l := make([]entry, 0, len(sorted[a]))
			for _, e := range sorted[a] {
				if g.side[e.i] == 0 {
					l = append(l, e)
				}
			}
			g.lists = append(g.lists, l)
		} else if rows := targetStates(sa); rows >= 2 {
			g.in[a] = input{size, rows, sa.Kind == core.KindExistence}
			size += rows * g.width
		}
	}
	g.table = make([]float64, size+g.width) // the last row holds the node's statistics
	if len(g.lists) > 0 {
		g.iv = make([]uint8, len(g.cs.Cells))
	}
}

func (m *Model) growTree(ctx context.Context, forks *par.Forks, cs *core.Caseset, sorted [][]entry, target int) (*node, int, error) {
	ta := m.space.Attr(target)
	g := &grower{ctx: ctx, forks: forks, m: m, cs: cs, target: target, inputs: m.inputAttrs(target), side: make([]int32, cs.Len())}
	sel := make([]int32, 0, cs.Len())
	switch {
	case ta.Kind == core.KindContinuous:
		g.regress, g.width = true, 3
		g.y, g.leafW = make([]float64, cs.Len()), cs.Weights
		for i := range g.y {
			var ok bool
			if g.y[i], ok = cs.Case(i).Continuous(target); !ok {
				g.side[i] = -1
			}
		}
	case ta.Kind == core.KindDiscrete && len(ta.States) == 0:
		return nil, 0, fmt.Errorf("dtree: target %q has no observed states", ta.Name)
	default: // discrete-like
		g.width = targetStates(ta) + 1
		g.class, g.leafW = make([]int, cs.Len()), make([]float64, cs.Len())
		for i := range g.class {
			cell, has := cs.CellOf(i, target)
			if g.leafW[i], g.class[i] = cs.Weights[i], stateOf(ta, cell, has, g.width-1); has {
				g.leafW[i] *= cell.Prob
			}
			if g.class[i] < 0 {
				g.side[i] = -1
			}
		}
	}
	for i, s := range g.side {
		if s == 0 {
			sel = append(sel, int32(i))
		}
	}
	g.plan(sorted)
	g.tmpl = new(grower)
	*g.tmpl = *g
	spans := make([]int32, 2*len(g.lists))
	for k, l := range g.lists {
		spans[2*k+1] = int32(len(l))
	}
	root, err := g.grow(sel, spans, 0)
	return root, g.parts, err
}

// stateOf is the state a case's cell gives a discrete-like attribute with n
// states: absent (0) or present (1) for an existence attribute, else the
// cell's state, or -1 when there is none in range.
func stateOf(sa *core.Attribute, cell core.Cell, has bool, n int) int {
	if sa.Kind == core.KindExistence {
		if has {
			return 1
		}
		return 0
	}
	if has && cell.Code >= 0 && int(cell.Code) < n {
		return int(cell.Code)
	}
	return -1
}

// add counts case i into the statistics vector v.
func (g *grower) add(v []float64, i int32) {
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

// grow recursively builds a subtree over the selected cases; spans[2k:2k+2]
// bounds the selection's run of lists[k].
func (g *grower) grow(sel, spans []int32, depth int) (*node, error) {
	select {
	case <-g.ctx.Done(): // not Err, which takes a lock on every node
		return nil, g.ctx.Err()
	default:
	}
	n := g.makeLeaf(sel)
	split, err := g.split(n, sel, spans, depth)
	if !split {
		n.pred = g.m.leafPrediction(n, g.target)
	}
	return n, err
}

// split turns the leaf n over sel into an interior node if a split is worth
// it, growing the children; it reports whether it did.
func (g *grower) split(n *node, sel, spans []int32, depth int) (bool, error) {
	m := g.m
	if n.support < m.prm.minSupport || depth >= m.prm.maxDepth || pure(n, g.regress) {
		return false, nil
	}
	attr, thr, gain, ok := g.bestSplit(sel, spans)
	if !ok || gain <= m.prm.penalty {
		return false, nil
	}
	bounds, heaviest, kids := g.partition(sel, spans, attr, thr)
	if bounds == nil {
		return false, nil
	}
	parts := len(bounds) - 1
	n.attr = attr
	n.threshold = thr
	n.missing = heaviest
	n.score = gain
	n.children = make([]*node, parts)
	counts := make([]int, parts)
	task := func(i int, forked bool) error {
		switch { // the heaviest part is the last task, never forked
		case i == parts-1:
			i = heaviest
		case i >= heaviest:
			i++
		}
		t := g // a task on this goroutine reuses g's buffers, idle meanwhile
		if forked {
			t = new(grower)
			*t = *g.tmpl
			t.table = make([]float64, len(g.table))
		}
		var err error
		n.children[i], err = t.grow(sel[bounds[i]:bounds[i+1]], kids[i*len(spans):(i+1)*len(spans)], depth+1)
		if forked {
			counts[i] = t.parts
		}
		return err
	}
	var err error
	if len(sel) < forkMinCases {
		for i := 0; i < parts && err == nil; i++ {
			err = task(i, false)
		}
	} else {
		err = g.forks.Run(g.ctx, parts, task)
	}
	for _, c := range counts {
		g.parts += c
	}
	return true, err
}

// makeLeaf computes leaf statistics over the selection.
func (g *grower) makeLeaf(sel []int32) *node {
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

// bestSplit scans every input attribute for the highest-gain split. Each
// continuous input's intervals are found off its run first; the one pass over
// the cells then counts each case into its intervals as into the
// discrete-like inputs' tables, in the node's case order, which the sums of
// fractional weights depend on.
func (g *grower) bestSplit(sel, spans []int32) (attr int, thr float64, gain float64, ok bool) {
	w := g.width
	clear(g.table)
	all := g.table[len(g.table)-w:]
	g.cands, g.off = g.cands[:0], g.off[:0]
	for k, l := range g.lists {
		g.off = append(g.off, len(g.cands))
		g.intervals(l[spans[2*k]:spans[2*k+1]])
	}
	g.off = append(g.off, len(g.cands))
	g.ivs = sized(g.ivs, (len(g.cands)+3*len(g.lists))*w)
	clear(g.ivs)
	for _, i := range sel {
		g.add(all, i)
		cells := g.cs.CellsOf(int(i))
		lo := int(g.cs.Ends[i]) - len(cells)
		for c, cell := range cells {
			switch in := g.in[cell.Attr]; {
			case in.at < 0:
			case in.rows == 0: // the right branch, then the value's interval
				r := (g.off[in.at] + 3*in.at + 1) * w
				g.add(g.ivs[r:r+w], i)
				r += (1 + int(g.iv[lo+c])) * w
				g.add(g.ivs[r:r+w], i)
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
			gain, t, valid = g.continuousGain(in.at, base)
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

// intervals appends to cands the quantile midpoints of a node's run of a
// continuous input's list, one every len(run)/(maxThresh+1) entries — none
// when a split there cannot separate its values — and a forward merge writes
// each value's interval into iv.
// Interval j holds the values in (cands[j-1], cands[j]], as
// sort.SearchFloat64s places them, and a NaN the last; a NaN candidate, first
// in cands, is >= no value.
func (g *grower) intervals(run []entry) {
	n := len(g.cands)
	if len(run) >= 2 {
		step := max(len(run)/(g.m.prm.maxThresh+1), 1)
		for i := step; i < len(run); i += step {
			if run[i].v != run[i-1].v {
				g.cands = append(g.cands, (run[i].v+run[i-1].v)/2)
			}
		}
		if lo, hi := run[0].v, run[len(run)-1].v; len(g.cands) == n && !(hi <= lo) {
			g.cands = append(g.cands, (lo+hi)/2)
		}
	}
	cands, j := g.cands[n:], 0
	for _, e := range run {
		iv := len(cands)
		if e.v == e.v {
			for j < len(cands) && !(cands[j] >= e.v) {
				j++
			}
			iv = j
		}
		g.iv[e.c] = uint8(iv)
	}
}

// continuousGain weighs splitting continuous input k at each candidate. Its
// rows of ivs are the left and right branches, then one per interval: the
// branches of a candidate are prefix sums over the intervals, so no candidate
// costs a pass.
func (g *grower) continuousGain(k int, base float64) (float64, float64, bool) {
	w, lo, hi := g.width, g.off[k], g.off[k+1]
	cands, table := g.cands[lo:hi], g.ivs[(lo+3*k)*w:(hi+3*k+3)*w]
	left, right := table[:w], table[w:2*w]
	table = table[2*w:]
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

// partition splits the node's cases by attribute a: one part per state for a
// discrete attribute, absent/present for an existence one, <= thr / > thr
// (NaN included) for a continuous one. It writes each case's part into side,
// a case without a value taking the heaviest part, and stably reorders sel
// and every list's run in place, so part p's cases are sel[bounds[p]:
// bounds[p+1]] — the cases without a value last in the heaviest part's — and
// its runs kids[p*len(spans):(p+1)*len(spans)]. When the cases with a value
// all fall in one part it splits nothing and returns nil bounds.
func (g *grower) partition(sel, spans []int32, a int, thr float64) (bounds []int32, heaviest int, kids []int32) {
	g.parts++
	sa := g.m.space.Attr(a)
	parts := 2
	if sa.Kind == core.KindDiscrete {
		parts = len(sa.States)
	}
	none := int32(parts) // the side of a case without a value
	if sa.Kind == core.KindContinuous {
		for _, i := range sel {
			g.side[i] = none
		}
		k := g.in[a].at
		for _, e := range g.lists[k][spans[2*k]:spans[2*k+1]] {
			g.side[e.i] = 0
			if !(e.v <= thr) {
				g.side[e.i] = 1
			}
		}
	} else {
		for _, i := range sel {
			cell, has := g.cs.CellOf(int(i), a)
			if g.side[i] = int32(stateOf(sa, cell, has, parts)); g.side[i] < 0 {
				g.side[i] = none
			}
		}
	}
	cnt := sized(g.cnt, parts+1)
	g.cnt = cnt
	clear(cnt)
	for _, i := range sel {
		cnt[g.side[i]]++
	}
	nonEmpty := 0
	for p, c := range cnt[:parts] {
		if c > 0 {
			nonEmpty++
		}
		if c > cnt[heaviest] {
			heaviest = p
		}
	}
	if nonEmpty < 2 {
		return nil, 0, nil
	}
	// cnt becomes each side's next place: the parts in order, the cases
	// without a value right after the heaviest part's.
	bounds = make([]int32, parts+1+parts*len(spans))
	bounds, kids = bounds[:parts+1], bounds[parts+1:]
	pos := int32(0)
	for p := range parts {
		bounds[p], cnt[p], pos = pos, pos, pos+cnt[p]
		if p == heaviest {
			cnt[none], pos = pos, pos+cnt[none]
		}
	}
	bounds[parts] = pos
	g.tmp = sized(g.tmp, len(sel))
	for _, i := range sel {
		s := g.side[i]
		g.tmp[cnt[s]], cnt[s] = i, cnt[s]+1
		if s == none {
			g.side[i] = int32(heaviest)
		}
	}
	copy(sel, g.tmp)
	for k, l := range g.lists {
		lo := spans[2*k]
		run := l[lo:spans[2*k+1]]
		clear(cnt[:parts])
		for _, e := range run {
			cnt[g.side[e.i]]++
		}
		for p, pos := 0, int32(0); p < parts; p++ {
			at := p*len(spans) + 2*k
			kids[at], kids[at+1], cnt[p], pos = lo+pos, lo+pos+cnt[p], pos, pos+cnt[p]
		}
		g.tmpE = sized(g.tmpE, len(run))
		for _, e := range run {
			s := g.side[e.i]
			g.tmpE[cnt[s]], cnt[s] = e, cnt[s]+1
		}
		copy(run, g.tmpE)
	}
	return bounds, heaviest, kids
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
