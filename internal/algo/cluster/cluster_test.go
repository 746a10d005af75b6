package cluster

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// blobs builds 2 well-separated Gaussian blobs in (x, y) with a correlated
// discrete attribute.
func blobs(n int) *core.Caseset {
	sp := core.NewAttributeSpace()
	sp.Add(core.Attribute{Name: "x", Column: "x", Kind: core.KindContinuous, IsInput: true})
	sp.Add(core.Attribute{Name: "y", Column: "y", Kind: core.KindContinuous, IsInput: true})
	sp.Add(core.Attribute{Name: "seg", Column: "seg", Kind: core.KindDiscrete,
		States: []string{"left", "right"}, IsInput: true})
	cs := &core.Caseset{Space: sp}
	rng := rand.New(rand.NewSource(2))
	xi, _ := sp.Lookup("x")
	yi, _ := sp.Lookup("y")
	si, _ := sp.Lookup("seg")
	for i := 0; i < n; i++ {
		c := core.NewCase()
		if i%2 == 0 {
			c.Set(xi, rng.NormFloat64())
			c.Set(yi, rng.NormFloat64())
			c.Set(si, int64(0))
		} else {
			c.Set(xi, 50+rng.NormFloat64())
			c.Set(yi, 50+rng.NormFloat64())
			c.Set(si, int64(1))
		}
		cs.Append(c)
	}
	return cs
}

func trainK(t *testing.T, cs *core.Caseset, params map[string]string) *Model {
	t.Helper()
	tm, err := New().Train(context.Background(), cs, nil, params, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tm.(*Model)
}

func TestSeparatesBlobs(t *testing.T) {
	cs := blobs(200)
	m := trainK(t, cs, map[string]string{"CLUSTER_COUNT": "2"})
	if m.K() != 2 {
		t.Fatalf("K = %d", m.K())
	}
	// Points from each blob must land in different clusters with high
	// confidence.
	xi, _ := cs.Space.Lookup("x")
	yi, _ := cs.Space.Lookup("y")
	cA := core.NewCase()
	cA.Set(xi, 0.0)
	cA.Set(yi, 0.0)
	cB := core.NewCase()
	cB.Set(xi, 50.0)
	cB.Set(yi, 50.0)
	pA, err := m.PredictCluster(cA)
	if err != nil {
		t.Fatal(err)
	}
	pB, _ := m.PredictCluster(cB)
	if pA.Estimate == pB.Estimate {
		t.Errorf("blobs not separated: %v vs %v", pA.Estimate, pB.Estimate)
	}
	if pA.Prob < 0.9 || pB.Prob < 0.9 {
		t.Errorf("membership not confident: %v %v", pA.Prob, pB.Prob)
	}
}

func TestClusterSizesSumToCases(t *testing.T) {
	cs := blobs(100)
	m := trainK(t, cs, map[string]string{"CLUSTER_COUNT": "3"})
	var total float64
	for _, s := range m.sizes {
		total += s
	}
	if math.Abs(total-100) > 1e-9 {
		t.Errorf("sizes sum = %v", total)
	}
}

func TestPredictContinuousFromClusters(t *testing.T) {
	cs := blobs(200)
	m := trainK(t, cs, map[string]string{"CLUSTER_COUNT": "2"})
	xi, _ := cs.Space.Lookup("x")
	yi, _ := cs.Space.Lookup("y")
	// Knowing x≈50 should predict y≈50 via the right-blob cluster.
	c := core.NewCase()
	c.Set(xi, 50.0)
	p, err := m.Predict(c, yi)
	if err != nil {
		t.Fatal(err)
	}
	y := p.Estimate.(float64)
	if y < 40 || y > 60 {
		t.Errorf("predicted y = %v want ~50", y)
	}
}

func TestPredictDiscreteFromClusters(t *testing.T) {
	cs := blobs(200)
	m := trainK(t, cs, map[string]string{"CLUSTER_COUNT": "2"})
	xi, _ := cs.Space.Lookup("x")
	si, _ := cs.Space.Lookup("seg")
	c := core.NewCase()
	c.Set(xi, 50.0)
	p, err := m.Predict(c, si)
	if err != nil {
		t.Fatal(err)
	}
	if p.Estimate != "right" {
		t.Errorf("seg prediction = %v want right", p.Estimate)
	}
	var sum float64
	for _, b := range p.Histogram {
		sum += b.Prob
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("histogram sums to %v", sum)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	cs := blobs(100)
	m1 := trainK(t, cs, map[string]string{"CLUSTER_COUNT": "2", "SEED": "7"})
	m2 := trainK(t, cs, map[string]string{"CLUSTER_COUNT": "2", "SEED": "7"})
	for i := range m1.centroids {
		for d := range m1.centroids[i] {
			if m1.centroids[i][d] != m2.centroids[i][d] {
				t.Fatal("same seed must give identical centroids")
			}
		}
	}
}

func TestKClampedToCases(t *testing.T) {
	cs := blobs(3)
	m := trainK(t, cs, map[string]string{"CLUSTER_COUNT": "10"})
	if m.K() != 3 {
		t.Errorf("K = %d want 3", m.K())
	}
}

func TestMembershipSumsToOne(t *testing.T) {
	cs := blobs(50)
	m := trainK(t, cs, nil)
	p, _ := m.PredictCluster(core.NewCase())
	var sum float64
	for _, b := range p.Histogram {
		sum += b.Prob
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("membership sums to %v", sum)
	}
}

func TestContent(t *testing.T) {
	cs := blobs(100)
	m := trainK(t, cs, map[string]string{"CLUSTER_COUNT": "2"})
	root := m.Content()
	clusters := 0
	root.Walk(func(n, _ *core.ContentNode) {
		if n.Type == core.NodeCluster {
			clusters++
			if len(n.Distribution) == 0 {
				t.Error("cluster without profile")
			}
			if n.Support <= 0 {
				t.Error("cluster without support")
			}
		}
	})
	if clusters != 2 {
		t.Errorf("content clusters = %d", clusters)
	}
}

func TestErrors(t *testing.T) {
	cs := blobs(10)
	for _, p := range []map[string]string{
		{"CLUSTER_COUNT": "0"},
		{"MAX_ITERATIONS": "x"},
		{"SEED": "x"},
		{"NOPE": "1"},
	} {
		if _, err := New().Train(context.Background(), cs, nil, p, 0); err == nil {
			t.Errorf("params %v must fail", p)
		}
	}
	if _, err := New().Train(context.Background(), &core.Caseset{Space: core.NewAttributeSpace()}, nil, nil, 0); err == nil {
		t.Error("empty caseset must fail")
	}
	m := trainK(t, cs, nil)
	if _, err := m.Predict(core.NewCase(), 99); err == nil {
		t.Error("out-of-range target must fail")
	}
	if _, err := m.PredictTable(core.NewCase(), "x"); err == nil {
		t.Error("PredictTable must fail")
	}
}
