package ml

import (
	"math"
	"math/rand"
)

// Forest is a bagged ensemble of CART trees covering both the Random
// Forest and Extremely Randomised Trees models of the evaluation.
type Forest struct {
	name      string
	nTrees    int
	maxDepth  int
	minLeaf   int
	bootstrap bool
	extra     bool // extra-trees: random thresholds, no bootstrap
	seed      int64

	bn    *binner
	trees []*binTree
}

// NewRandomForest builds a Random Forest: 100 bootstrap-sampled gini trees
// with sqrt-feature subsampling per node.
func NewRandomForest(seed int64) *Forest {
	return &Forest{name: "randomforest", nTrees: 100, maxDepth: 12, minLeaf: 2, bootstrap: true, seed: seed}
}

// NewExtraTrees builds Extremely Randomised Trees: 100 trees grown on the
// full sample with one random threshold per candidate feature.
func NewExtraTrees(seed int64) *Forest {
	return &Forest{name: "extratrees", nTrees: 100, maxDepth: 12, minLeaf: 2, extra: true, seed: seed}
}

// Name implements Classifier.
func (f *Forest) Name() string { return f.name }

// Fit implements Classifier.
func (f *Forest) Fit(X [][]float64, y []int) error {
	d, err := checkXY(X, y)
	if err != nil {
		return err
	}
	f.bn = fitBinner(X, defaultMaxBins)
	binned := f.bn.transform(X)
	rng := rand.New(rand.NewSource(f.seed))
	mtry := int(math.Sqrt(float64(d)))
	if mtry < 1 {
		mtry = 1
	}
	cfg := classTreeConfig{
		maxDepth:         f.maxDepth,
		minSamplesLeaf:   f.minLeaf,
		mtry:             mtry,
		randomThresholds: f.extra,
	}
	f.trees = make([]*binTree, f.nTrees)
	n := len(X)
	buf := newRowBuffer(n)
	for t := 0; t < f.nTrees; t++ {
		if f.bootstrap {
			for i := range buf.rows {
				buf.rows[i] = rng.Intn(n)
			}
		} else {
			buf.reset()
		}
		f.trees[t] = buildClassTree(binned, y, &buf, f.bn, cfg, rng)
	}
	return nil
}

// PredictProba implements Classifier.
func (f *Forest) PredictProba(X [][]float64) []float64 {
	if f.bn == nil {
		return make([]float64, len(X))
	}
	binned := f.bn.transform(X)
	out := make([]float64, len(X))
	for i, row := range binned {
		s := 0.0
		for _, t := range f.trees {
			s += t.predictRow(row)
		}
		out[i] = s / float64(len(f.trees))
	}
	return out
}

// Predict implements Classifier.
func (f *Forest) Predict(X [][]float64) []int { return hardLabels(f.PredictProba(X)) }
