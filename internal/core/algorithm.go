package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/rowset"
)

// Bucket is one entry of a prediction histogram (Section 3.2.4 of the
// paper): a candidate value with its probability and supporting evidence.
type Bucket struct {
	// Value is the candidate prediction (state string for discrete targets,
	// numeric for continuous ones, nested key for table targets).
	Value rowset.Value
	// Prob is the probability assigned to the value, in [0,1].
	Prob float64
	// Support is the (weighted) number of training cases behind the value.
	Support float64
	// Variance is the estimator variance, when the algorithm provides one.
	Variance float64
}

// Prediction is the full answer for one target attribute of one case. The
// paper models predictions as histograms from which UDFs slice the "best
// estimate", "top 3", or "estimates above 55%"; Histogram carries that.
type Prediction struct {
	// Estimate is the single best value (the histogram's argmax for discrete
	// targets, the conditional mean for continuous ones).
	Estimate rowset.Value
	// Prob is the probability of Estimate (1 for exact continuous echoes).
	Prob float64
	// Support is the weighted case count behind the estimate.
	Support float64
	// Stdev is the predictive standard deviation for continuous targets.
	Stdev float64
	// Histogram lists candidate values, most probable first.
	Histogram []Bucket
}

// Best returns the top histogram bucket, or a zero bucket when empty.
func (p Prediction) Best() Bucket {
	if len(p.Histogram) == 0 {
		return Bucket{Value: p.Estimate, Prob: p.Prob, Support: p.Support}
	}
	return p.Histogram[0]
}

// SortHistogram orders the histogram by descending probability (stable on
// value for determinism) and sets Estimate/Prob/Support from the top bucket.
func (p *Prediction) SortHistogram() {
	slices.SortStableFunc(p.Histogram, func(a, b Bucket) int {
		switch {
		case a.Prob > b.Prob:
			return -1
		case a.Prob < b.Prob:
			return 1
		case a.Prob != b.Prob: // a NaN orders with nothing
			return 0
		}
		return rowset.Compare(a.Value, b.Value)
	})
	if len(p.Histogram) > 0 {
		p.Estimate = p.Histogram[0].Value
		p.Prob = p.Histogram[0].Prob
		p.Support = p.Histogram[0].Support
	}
}

// PredictionBatch holds one target's predictions for the cases of a batch, one
// column per figure: case i's answer is element i of each column.
type PredictionBatch struct {
	Estimate []rowset.Value
	Prob     []float64
	Support  []float64
	Stdev    []float64
	// Histogram[i] is case i's histogram, most probable first. The column is
	// empty unless the batch was made for histograms.
	Histogram [][]Bucket
	figures   []float64 // Prob, Support and Stdev, end to end
}

// Reset makes the batch's columns for n cases, cleared, with histograms only
// when hist is set. It reuses the room the columns already have.
func (b *PredictionBatch) Reset(n int, hist bool) {
	if cap(b.Estimate) < n || cap(b.figures) < 3*n {
		*b = PredictionBatch{Estimate: make([]rowset.Value, n), figures: make([]float64, 3*n)}
	}
	f := b.figures[:3*n]
	clear(f)
	b.Estimate, b.Prob, b.Support, b.Stdev = b.Estimate[:n], f[:n:n], f[n:2*n:2*n], f[2*n:]
	clear(b.Estimate)
	b.Histogram = b.Histogram[:0]
	if hist {
		b.Histogram = append(b.Histogram, make([][]Bucket, n)...)
	}
}

// Set records p as case i's prediction. Its histogram is kept — shared, not
// copied — only when the batch carries histograms.
func (b *PredictionBatch) Set(i int, p Prediction) {
	b.Estimate[i], b.Prob[i], b.Support[i], b.Stdev[i] = p.Estimate, p.Prob, p.Support, p.Stdev
	if i < len(b.Histogram) {
		b.Histogram[i] = p.Histogram
	}
}

// BatchPredictor is implemented by models that write a prediction straight
// into a batch's columns. PredictInto writes into element i of out the
// figures Predict returns for c and target, and c's histogram only when out
// carries histograms; what Predict would allocate for the rest, it need not.
type BatchPredictor interface {
	PredictInto(c Case, target int, out *PredictionBatch, i int) error
}

// PredictInto writes m's prediction for c into element i of out: of attribute
// target, or — when table is not empty — of that nested TABLE column. It runs
// the model's BatchPredictor form when there is one, and otherwise Predict or
// PredictTable.
func PredictInto(m TrainedModel, c Case, target int, table string, out *PredictionBatch, i int) error {
	if bp, ok := m.(BatchPredictor); ok && table == "" {
		return bp.PredictInto(c, target, out, i)
	}
	var p Prediction
	var err error
	if table == "" {
		p, err = m.Predict(c, target)
	} else {
		p, err = m.PredictTable(c, table)
	}
	if err == nil {
		out.Set(i, p)
	}
	return err
}

// TrainedModel is the result of running an algorithm over a caseset: a
// predictor plus a browsable content graph. Implementations must be safe for
// concurrent Predict calls.
type TrainedModel interface {
	// AlgorithmName identifies the service that produced the model.
	AlgorithmName() string
	// Predict returns the prediction for one target attribute of the case.
	Predict(c Case, target int) (Prediction, error)
	// PredictTable ranks candidate nested-key attributes of the TABLE
	// column (market-basket style): which rows are likely present. The
	// returned histogram's values are nested key strings. Input existence
	// attributes already present in the case are excluded.
	PredictTable(c Case, tableColumn string) (Prediction, error)
	// Content returns the root of the model's content graph.
	Content() *ContentNode
}

// ClusterPredictor is implemented by segmentation models; it backs the DMX
// Cluster() and ClusterProbability() prediction functions. The histogram's
// values are cluster captions.
type ClusterPredictor interface {
	PredictCluster(c Case) (Prediction, error)
}

// Algorithm is a pluggable mining service — the extensibility point the
// paper's Section 2 design philosophy calls for. Train consumes an entire
// caseset and returns an immutable TrainedModel.
type Algorithm interface {
	// Name is the service name used in the USING clause.
	Name() string
	// Description is surfaced in the MINING_SERVICES schema rowset.
	Description() string
	// SupportsPredictTable reports whether the service can predict nested
	// TABLE targets.
	SupportsPredictTable() bool
	// Train builds a model. targets lists the attribute indexes to learn;
	// params carries USING-clause parameters (already upper-cased keys).
	// Training stops with ctx.Err() once ctx is done, and runs on at most
	// workers goroutines at once (<= 0: runtime.GOMAXPROCS(0)).
	Train(ctx context.Context, cs *Caseset, targets []int, params map[string]string, workers int) (TrainedModel, error)
}

// Registry maps service names to algorithms, case-insensitively. It is the
// provider's algorithm catalog, reported by MINING_SERVICES.
type Registry struct {
	mu    sync.RWMutex
	algos map[string]Algorithm
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{algos: make(map[string]Algorithm)}
}

// Register adds an algorithm. Re-registering a name replaces it.
func (r *Registry) Register(a Algorithm) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.algos[strings.ToLower(a.Name())] = a
}

// RegisterAs adds an algorithm under an alias; the paper's examples use
// provider-specific service names like [Decision_Trees_101].
func (r *Registry) RegisterAs(name string, a Algorithm) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.algos[strings.ToLower(name)] = a
}

// ParamDesc documents one algorithm parameter for the SERVICE_PARAMETERS
// schema rowset.
type ParamDesc struct {
	Name        string
	Type        string
	Default     string
	Description string
}

// ParameterDescriber is implemented by algorithms that document their
// USING-clause parameters.
type ParameterDescriber interface {
	Parameters() []ParamDesc
}

// Lookup finds an algorithm by service name.
func (r *Registry) Lookup(name string) (Algorithm, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a, ok := r.algos[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("core: no mining algorithm named %q (available: %s)",
			name, strings.Join(r.names(), ", "))
	}
	return a, nil
}

// Names lists registered service names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.names()
}

func (r *Registry) names() []string {
	seen := make(map[string]bool, len(r.algos))
	out := make([]string, 0, len(r.algos))
	for _, a := range r.algos {
		// Aliases (RegisterAs) map extra keys to the same service; list the
		// canonical name once.
		if !seen[a.Name()] {
			seen[a.Name()] = true
			out = append(out, a.Name())
		}
	}
	sort.Strings(out)
	return out
}

// Model is a catalogued mining model: the definition plus, once INSERT INTO
// has run, the frozen attribute space and the trained state. It is the
// "first class object" the paper builds its API around.
type Model struct {
	Def   *ModelDef
	Space *AttributeSpace
	// Trained is nil until the model is populated.
	Trained TrainedModel
	// CaseCount is the number of training cases consumed.
	CaseCount int
}

// IsTrained reports whether the model has been populated.
func (m *Model) IsTrained() bool { return m.Trained != nil }

// Reset clears training state (DELETE FROM <model>).
func (m *Model) Reset() {
	m.Trained = nil
	m.Space = nil
	m.CaseCount = 0
}
