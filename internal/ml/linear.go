package ml

import "math/rand"

// LogRegL1 is logistic regression with L1 regularisation, trained with
// proximal gradient descent (ISTA) over standardised features. It is the
// reproduction's stand-in for the paper's "Linear Regression with L1
// regularisation (LR)" classifier; the L1 penalty drives irrelevant
// augmented features to exactly zero weight, which is why the paper uses
// it as a linear-model stress test for noisy augmentation.
type LogRegL1 struct {
	// Alpha is the L1 penalty strength.
	Alpha float64
	// Epochs bounds the number of full gradient passes.
	Epochs int
	// LR is the gradient step size.
	LR float64

	seed    int64
	weights []float64
	bias    float64
	means   []float64
	stds    []float64
}

// NewLogRegL1 returns the default configuration (alpha 0.01, 200 epochs).
func NewLogRegL1(seed int64) *LogRegL1 {
	return &LogRegL1{Alpha: 0.01, Epochs: 200, LR: 0.5, seed: seed}
}

// Name implements Classifier.
func (m *LogRegL1) Name() string { return "lr_l1" }

// Fit implements Classifier.
func (m *LogRegL1) Fit(X [][]float64, y []int) error {
	d, err := checkXY(X, y)
	if err != nil {
		return err
	}
	imputed, means := meanImpute(X)
	m.means = means
	m.stds = columnStds(imputed, means)
	Z := standardize(imputed, means, m.stds)
	n := len(Z)

	rng := rand.New(rand.NewSource(m.seed))
	m.weights = make([]float64, d)
	for j := range m.weights {
		m.weights[j] = rng.NormFloat64() * 1e-3
	}
	m.bias = 0

	grad := make([]float64, d)
	for epoch := 0; epoch < m.Epochs; epoch++ {
		for j := range grad {
			grad[j] = 0
		}
		gb := 0.0
		for i, row := range Z {
			p := sigmoid(m.score(row))
			e := p - float64(y[i])
			for j, v := range row {
				grad[j] += e * v
			}
			gb += e
		}
		step := m.LR / float64(n)
		for j := range m.weights {
			w := m.weights[j] - step*grad[j]
			// Proximal (soft-threshold) operator for the L1 penalty.
			m.weights[j] = softThreshold(w, m.LR*m.Alpha)
		}
		m.bias -= step * gb
	}
	return nil
}

func (m *LogRegL1) score(row []float64) float64 {
	s := m.bias
	for j, v := range row {
		s += m.weights[j] * v
	}
	return s
}

func softThreshold(w, t float64) float64 {
	switch {
	case w > t:
		return w - t
	case w < -t:
		return w + t
	default:
		return 0
	}
}

// PredictProba implements Classifier.
func (m *LogRegL1) PredictProba(X [][]float64) []float64 {
	out := make([]float64, len(X))
	if m.weights == nil {
		return out
	}
	Z := standardize(applyImpute(X, m.means), m.means, m.stds)
	for i, row := range Z {
		out[i] = sigmoid(m.score(row))
	}
	return out
}

// Predict implements Classifier.
func (m *LogRegL1) Predict(X [][]float64) []int { return hardLabels(m.PredictProba(X)) }
