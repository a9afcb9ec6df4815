package ml

import (
	"math"
	"math/rand"
	"testing"

	"autofeat/internal/frame"
)

// synth builds a separable binary task: two informative features and
// (d-2) noise features.
func synth(n, d int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		y[i] = cls
		row := make([]float64, d)
		row[0] = float64(cls)*2 + rng.NormFloat64()
		if d > 1 {
			row[1] = float64(cls)*-1.5 + rng.NormFloat64()*0.8
		}
		for j := 2; j < d; j++ {
			row[j] = rng.NormFloat64()
		}
		X[i] = row
	}
	return X, y
}

func trainTest(n, d int, seed int64) (Xtr [][]float64, ytr []int, Xte [][]float64, yte []int) {
	X, y := synth(n, d, seed)
	cut := n * 4 / 5
	return X[:cut], y[:cut], X[cut:], y[cut:]
}

func TestAllModelsLearnSeparableTask(t *testing.T) {
	Xtr, ytr, Xte, yte := trainTest(600, 6, 1)
	for _, f := range append(TreeFactories(), NonTreeFactories()...) {
		m := f.New(7)
		if m.Name() != f.Name {
			t.Errorf("factory %q builds model named %q", f.Name, m.Name())
		}
		if err := m.Fit(Xtr, ytr); err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		acc := Accuracy(m.Predict(Xte), yte)
		if acc < 0.8 {
			t.Errorf("%s: accuracy %.3f < 0.8 on separable task", f.Name, acc)
		}
		auc := AUC(m.PredictProba(Xte), yte)
		if auc < 0.85 {
			t.Errorf("%s: AUC %.3f < 0.85", f.Name, auc)
		}
	}
}

func TestModelsRejectBadInput(t *testing.T) {
	for _, f := range append(TreeFactories(), NonTreeFactories()...) {
		m := f.New(1)
		if err := m.Fit(nil, nil); err == nil {
			t.Errorf("%s: empty input must fail", f.Name)
		}
		if err := m.Fit([][]float64{{1}}, []int{0, 1}); err == nil {
			t.Errorf("%s: row/label mismatch must fail", f.Name)
		}
		if err := m.Fit([][]float64{{1}, {2}}, []int{0, 5}); err == nil {
			t.Errorf("%s: non-binary label must fail", f.Name)
		}
		if err := m.Fit([][]float64{{1, 2}, {3}}, []int{0, 1}); err == nil {
			t.Errorf("%s: ragged matrix must fail", f.Name)
		}
	}
}

func TestUntrainedModelsPredictZeros(t *testing.T) {
	X := [][]float64{{1, 2}}
	for _, f := range append(TreeFactories(), NonTreeFactories()...) {
		m := f.New(1)
		p := m.PredictProba(X)
		if len(p) != 1 {
			t.Errorf("%s: untrained PredictProba shape", f.Name)
		}
	}
}

func TestModelsHandleNaN(t *testing.T) {
	Xtr, ytr, Xte, yte := trainTest(400, 4, 3)
	// Punch NaN holes into 10% of cells.
	rng := rand.New(rand.NewSource(5))
	for _, X := range [][][]float64{Xtr, Xte} {
		for _, r := range X {
			for j := range r {
				if rng.Float64() < 0.1 {
					r[j] = math.NaN()
				}
			}
		}
	}
	for _, f := range append(TreeFactories(), NonTreeFactories()...) {
		m := f.New(7)
		if err := m.Fit(Xtr, ytr); err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		acc := Accuracy(m.Predict(Xte), yte)
		if acc < 0.7 {
			t.Errorf("%s: accuracy %.3f < 0.7 with 10%% NaN", f.Name, acc)
		}
	}
}

func TestModelDeterminism(t *testing.T) {
	Xtr, ytr, Xte, _ := trainTest(300, 5, 11)
	for _, f := range TreeFactories() {
		a := f.New(42)
		b := f.New(42)
		if err := a.Fit(Xtr, ytr); err != nil {
			t.Fatal(err)
		}
		if err := b.Fit(Xtr, ytr); err != nil {
			t.Fatal(err)
		}
		pa, pb := a.PredictProba(Xte), b.PredictProba(Xte)
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("%s: same seed, different predictions", f.Name)
			}
		}
	}
}

func TestGBDTFlavoursDiffer(t *testing.T) {
	lg := NewLightGBM(1)
	xg := NewXGBoost(1)
	if !lg.leafWise || xg.leafWise {
		t.Fatal("lightgbm must be leaf-wise, xgboost depth-wise")
	}
	Xtr, ytr, _, _ := trainTest(300, 5, 13)
	if err := lg.Fit(Xtr, ytr); err != nil {
		t.Fatal(err)
	}
	if len(lg.trees) != lg.nRounds {
		t.Fatalf("lightgbm trees = %d, want %d", len(lg.trees), lg.nRounds)
	}
	for _, tr := range lg.trees {
		if tr.leafCount() > lg.maxLeaves {
			t.Fatalf("leaf-wise tree exceeded budget: %d leaves", tr.leafCount())
		}
	}
}

func TestBinner(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}, {math.NaN()}}
	b := fitBinner(X, 4)
	if b.bin(0, math.NaN()) != missingBin {
		t.Fatal("NaN must map to the missing bin")
	}
	if b.bin(0, -100) == missingBin {
		t.Fatal("small values must not collide with the missing bin")
	}
	if b.bin(0, 1) >= b.bin(0, 8) {
		t.Fatal("binning must be monotone")
	}
	if b.numBins(0) > 4+1 {
		t.Fatalf("too many bins: %d", b.numBins(0))
	}
	tr := b.transform(X)
	if len(tr) != 9 || tr[8][0] != missingBin {
		t.Fatal("transform broken")
	}
}

func TestBinnerConstantFeature(t *testing.T) {
	X := [][]float64{{5}, {5}, {5}}
	b := fitBinner(X, 8)
	if b.bin(0, 5) == missingBin {
		t.Fatal("constant feature still bins to a value bin")
	}
	// All equal values share a bin.
	if b.bin(0, 5) != b.bin(0, 5) {
		t.Fatal("constant binning unstable")
	}
}

func TestLogRegL1Sparsifies(t *testing.T) {
	X, y := synth(500, 20, 17)
	m := NewLogRegL1(3)
	m.Alpha = 0.05
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	nz := 0
	for _, w := range m.weights {
		if w != 0 {
			nz++
		}
	}
	if nz > 15 {
		t.Fatalf("L1 should zero noise weights: %d/20 non-zero", nz)
	}
	if nz == 0 {
		t.Fatal("informative weights must survive")
	}
	if math.Abs(m.weights[0]) == 0 {
		t.Fatal("strongest feature zeroed out")
	}
}

func TestKNNBasics(t *testing.T) {
	if NewKNN(0).k != 1 {
		t.Fatal("k clamps to 1")
	}
	// k larger than the training set clamps.
	m := NewKNN(50)
	X := [][]float64{{0}, {1}, {10}, {11}}
	y := []int{0, 0, 1, 1}
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	p := m.PredictProba([][]float64{{0.5}})
	if p[0] != 0.5 {
		t.Fatalf("k>n must average everything: %v", p[0])
	}
	m2 := NewKNN(2)
	if err := m2.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if got := m2.Predict([][]float64{{0.2}, {10.5}}); got[0] != 0 || got[1] != 1 {
		t.Fatalf("knn predictions wrong: %v", got)
	}
}

func TestAccuracyAUCF1(t *testing.T) {
	if Accuracy([]int{1, 0, 1}, []int{1, 1, 1}) != 2.0/3 {
		t.Fatal("accuracy wrong")
	}
	if Accuracy(nil, nil) != 0 {
		t.Fatal("empty accuracy is 0")
	}
	// Perfect ranking -> AUC 1.
	if AUC([]float64{0.1, 0.2, 0.8, 0.9}, []int{0, 0, 1, 1}) != 1 {
		t.Fatal("perfect AUC wrong")
	}
	// Inverted ranking -> AUC 0.
	if AUC([]float64{0.9, 0.8, 0.2, 0.1}, []int{0, 0, 1, 1}) != 0 {
		t.Fatal("inverted AUC wrong")
	}
	// Ties -> 0.5.
	if AUC([]float64{0.5, 0.5}, []int{0, 1}) != 0.5 {
		t.Fatal("tied AUC wrong")
	}
	// Single class -> 0.5.
	if AUC([]float64{0.5, 0.7}, []int{1, 1}) != 0.5 {
		t.Fatal("single-class AUC must be 0.5")
	}
	// F1.
	if F1([]int{1, 1, 0, 0}, []int{1, 0, 1, 0}) != 0.5 {
		t.Fatal("F1 wrong")
	}
	if F1([]int{0, 0}, []int{1, 1}) != 0 {
		t.Fatal("zero-tp F1 is 0")
	}
}

func TestMetricsMismatchDegrades(t *testing.T) {
	// Mismatched lengths (corrupt evaluations) degrade to the common
	// prefix instead of panicking — graceful degradation so one corrupt
	// table never kills the process.
	if got := Accuracy([]int{1}, []int{1, 2}); got != 1 {
		t.Errorf("accuracy over prefix = %v, want 1", got)
	}
	if got := AUC([]float64{0.5}, []int{1, 0}); got != 0.5 {
		t.Errorf("auc over single-class prefix = %v, want 0.5", got)
	}
	if got := F1([]int{1}, []int{1, 0}); got != 1 {
		t.Errorf("f1 over prefix = %v, want 1", got)
	}
}

func TestFactoryByName(t *testing.T) {
	for _, name := range []string{"lightgbm", "xgboost", "randomforest", "extratrees", "knn", "lr_l1"} {
		f, ok := FactoryByName(name)
		if !ok || f.New(1).Name() != name {
			t.Errorf("FactoryByName(%q) broken", name)
		}
	}
	if _, ok := FactoryByName("nope"); ok {
		t.Fatal("unknown name must fail")
	}
}

func TestEvaluateFrame(t *testing.T) {
	n := 400
	ids := make([]int64, n)
	feats := make([]float64, n)
	labels := make([]int64, n)
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < n; i++ {
		ids[i] = int64(i)
		labels[i] = int64(i % 2)
		feats[i] = float64(labels[i])*3 + rng.NormFloat64()
	}
	f := frame.New("t")
	if err := f.AddColumn(frame.NewIntColumn("id", ids, nil)); err != nil {
		t.Fatal(err)
	}
	if err := f.AddColumn(frame.NewFloatColumn("x", feats, nil)); err != nil {
		t.Fatal(err)
	}
	if err := f.AddColumn(frame.NewIntColumn("y", labels, nil)); err != nil {
		t.Fatal(err)
	}
	res, err := EvaluateFrame(f, []string{"x"}, "y", NewLightGBM(1), 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy < 0.85 {
		t.Fatalf("accuracy %.3f too low", res.Accuracy)
	}
	if res.Model != "lightgbm" {
		t.Fatal("model name missing from result")
	}
	if _, err := EvaluateFrame(f, nil, "y", NewLightGBM(1), 9); err == nil {
		t.Fatal("no features must fail")
	}
	if _, err := EvaluateFrame(f, []string{"ghost"}, "y", NewLightGBM(1), 9); err == nil {
		t.Fatal("missing feature must fail")
	}
}

func TestSigmoidAndLogit(t *testing.T) {
	if sigmoid(0) != 0.5 {
		t.Fatal("sigmoid(0) must be 0.5")
	}
	if sigmoid(100) != 1 || sigmoid(-100) != 0 {
		t.Fatal("sigmoid clamping broken")
	}
	if math.Abs(sigmoid(logit(0.3))-0.3) > 1e-9 {
		t.Fatal("logit must invert sigmoid")
	}
	if math.IsInf(logit(0), 0) || math.IsInf(logit(1), 0) {
		t.Fatal("logit must clamp at the boundaries")
	}
}

func TestMeanImpute(t *testing.T) {
	X := [][]float64{{1, math.NaN()}, {3, 4}}
	out, means := meanImpute(X)
	if out[0][1] != 4 {
		t.Fatalf("NaN must become column mean: %v", out[0][1])
	}
	if means[0] != 2 {
		t.Fatalf("mean wrong: %v", means[0])
	}
	// Source untouched.
	if !math.IsNaN(X[0][1]) {
		t.Fatal("meanImpute must copy")
	}
	allNaN := [][]float64{{math.NaN()}, {math.NaN()}}
	out2, _ := meanImpute(allNaN)
	if out2[0][0] != 0 {
		t.Fatal("all-NaN feature imputes 0")
	}
	if got, _ := meanImpute(nil); got != nil {
		t.Fatal("nil input gives nil")
	}
}
