package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v (tol %v)", msg, got, want, tol)
	}
}

func TestMeanVariance(t *testing.T) {
	approx(t, Mean([]float64{1, 2, 3, math.NaN()}), 2, 1e-12, "mean skips NaN")
	if !math.IsNaN(Mean([]float64{math.NaN()})) {
		t.Fatal("all-NaN mean must be NaN")
	}
}

func TestPearsonPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	approx(t, Pearson(x, y), 1, 1e-12, "perfect positive")
	neg := []float64{10, 8, 6, 4, 2}
	approx(t, Pearson(x, neg), -1, 1e-12, "perfect negative")
}

func TestPearsonConstantAndShort(t *testing.T) {
	if Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}) != 0 {
		t.Fatal("constant x must give 0")
	}
	if Pearson([]float64{1}, []float64{2}) != 0 {
		t.Fatal("single pair must give 0")
	}
	if Pearson([]float64{math.NaN(), 1}, []float64{1, math.NaN()}) != 0 {
		t.Fatal("no complete pairs must give 0")
	}
}

func TestPearsonNaNSkipping(t *testing.T) {
	x := []float64{1, 2, math.NaN(), 4}
	y := []float64{2, 4, 100, 8}
	approx(t, Pearson(x, y), 1, 1e-12, "NaN rows skipped")
}

func TestPearsonMismatchDegrades(t *testing.T) {
	// Mismatched lengths (corrupt input) degrade to the common prefix
	// instead of panicking: a single shared row -> no measurable
	// association -> 0.
	if got := Pearson([]float64{1}, []float64{1, 2}); got != 0 {
		t.Fatalf("mismatched Pearson = %v, want 0", got)
	}
	if got := Pearson([]float64{1, 2, 3, 4}, []float64{2, 4, 6}); got != 1 {
		t.Fatalf("prefix Pearson = %v, want 1", got)
	}
}

func TestRanksTies(t *testing.T) {
	r := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		approx(t, r[i], want[i], 1e-12, "tied ranks")
	}
	r2 := Ranks([]float64{5, math.NaN(), 3})
	if !math.IsNaN(r2[1]) {
		t.Fatal("NaN input must give NaN rank")
	}
	approx(t, r2[0], 2, 1e-12, "rank of 5")
	approx(t, r2[2], 1, 1e-12, "rank of 3")
}

func TestSpearmanMonotonic(t *testing.T) {
	// Monotonic but non-linear: Spearman must be 1, Pearson < 1.
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{1, 8, 27, 64, 125}
	approx(t, Spearman(x, y), 1, 1e-12, "monotonic spearman")
	if Pearson(x, y) >= 1 {
		t.Fatal("pearson of cubic should be < 1")
	}
}

func TestSpearmanIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 2000
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
		y[i] = rng.Float64()
	}
	if r := math.Abs(Spearman(x, y)); r > 0.08 {
		t.Fatalf("independent vars should have |rho|≈0, got %v", r)
	}
}

func TestMinMaxNormalize(t *testing.T) {
	x := MinMaxNormalize([]float64{2, 4, 6})
	approx(t, x[0], 0, 1e-12, "min")
	approx(t, x[1], 0.5, 1e-12, "mid")
	approx(t, x[2], 1, 1e-12, "max")
	c := MinMaxNormalize([]float64{3, 3})
	if c[0] != 0 || c[1] != 0 {
		t.Fatal("constant normalises to zeros")
	}
	nn := MinMaxNormalize([]float64{math.NaN(), 1, 2})
	if !math.IsNaN(nn[0]) {
		t.Fatal("NaN preserved")
	}
}

func TestDiscretizeDiscretePassThrough(t *testing.T) {
	x := []float64{0, 1, 2, 1, 0}
	d := Discretize(x, 10)
	if d[0] != 0 || d[1] != 1 || d[2] != 2 || d[3] != 1 {
		t.Fatalf("discrete values must keep stable codes: %v", d)
	}
}

func TestDiscretizeContinuous(t *testing.T) {
	n := 1000
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i)
	}
	d := Discretize(x, 10)
	if d[0] != 0 {
		t.Fatalf("min must land in bin 0, got %d", d[0])
	}
	if d[n-1] != 9 {
		t.Fatalf("max must land in last bin, got %d", d[n-1])
	}
	for _, v := range d {
		if v < 0 || v > 9 {
			t.Fatalf("bin out of range: %d", v)
		}
	}
}

func TestDiscretizeNaNAndConstant(t *testing.T) {
	d := Discretize([]float64{math.NaN(), 1, 1}, 2)
	if d[0] != -1 {
		t.Fatal("NaN must code to -1")
	}
	// bins < 2 clamps to 2
	d2 := Discretize([]float64{1, 2, 3}, 0)
	for _, v := range d2 {
		if v < 0 || v > 2 {
			t.Fatalf("clamped bins out of range: %v", d2)
		}
	}
}

func TestEntropy(t *testing.T) {
	approx(t, Entropy([]int{0, 0, 1, 1}), math.Log(2), 1e-12, "uniform binary entropy")
	approx(t, Entropy([]int{1, 1, 1}), 0, 1e-12, "constant entropy")
	approx(t, Entropy([]int{-1, -1}), 0, 1e-12, "all-missing entropy")
	// skewed: H = -(0.75 ln 0.75 + 0.25 ln 0.25)
	want := -(0.75*math.Log(0.75) + 0.25*math.Log(0.25))
	approx(t, Entropy([]int{0, 0, 0, 1}), want, 1e-12, "skewed entropy")
}

func TestMutualInformationIdentityAndIndependence(t *testing.T) {
	x := []int{0, 0, 1, 1, 0, 1}
	approx(t, MutualInformation(x, x), Entropy(x), 1e-12, "I(X;X)=H(X)")
	// independent: all four combinations equally likely
	a := []int{0, 0, 1, 1}
	b := []int{0, 1, 0, 1}
	approx(t, MutualInformation(a, b), 0, 1e-12, "independent MI = 0")
	// symmetry
	y := []int{1, 0, 1, 0, 0, 1}
	approx(t, MutualInformation(x, y), MutualInformation(y, x), 1e-12, "MI symmetric")
}

func TestMutualInformationMissing(t *testing.T) {
	x := []int{0, 1, -1, 0}
	y := []int{0, 1, 1, -1}
	// only rows 0,1 complete: perfectly dependent binary
	approx(t, MutualInformation(x, y), math.Log(2), 1e-12, "missing rows skipped")
	if MutualInformation([]int{-1}, []int{-1}) != 0 {
		t.Fatal("no complete rows gives 0")
	}
}

func TestConditionalMutualInformation(t *testing.T) {
	// X = Y deterministically within each Z group: I(X;Y|Z) = avg within-group MI.
	x := []int{0, 1, 0, 1}
	y := []int{0, 1, 0, 1}
	z := []int{0, 0, 1, 1}
	approx(t, ConditionalMutualInformation(x, y, z), math.Log(2), 1e-12, "cmi deterministic")
	// If Z fully explains both (X and Y constant within groups), CMI = 0.
	x2 := []int{0, 0, 1, 1}
	y2 := []int{0, 0, 1, 1}
	approx(t, ConditionalMutualInformation(x2, y2, z), 0, 1e-12, "cmi explained away")
	if ConditionalMutualInformation([]int{-1}, []int{0}, []int{0}) != 0 {
		t.Fatal("missing-only rows give 0")
	}
}

func TestSymmetricUncertainty(t *testing.T) {
	x := []int{0, 0, 1, 1}
	approx(t, SymmetricUncertainty(x, x), 1, 1e-12, "SU(X,X)=1")
	b := []int{0, 1, 0, 1}
	approx(t, SymmetricUncertainty(x, b), 0, 1e-12, "SU independent = 0")
	if SymmetricUncertainty([]int{0, 0}, []int{0, 0}) != 0 {
		t.Fatal("zero-entropy SU must be 0")
	}
}

func TestInformationGainAlias(t *testing.T) {
	x := []int{0, 1, 0, 1}
	y := []int{0, 1, 1, 0}
	approx(t, InformationGain(x, y), MutualInformation(x, y), 0, "IG alias")
}

func TestReliefSeparatesRelevantFeature(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 200
	rows := make([][]float64, n)
	y := make([]int, n)
	for i := range rows {
		cls := i % 2
		y[i] = cls
		relevant := float64(cls)*5 + rng.NormFloat64()*0.3
		noise := rng.Float64() * 10
		rows[i] = []float64{relevant, noise}
	}
	w := ReliefScores(rows, y, 100, rng)
	if w[0] <= w[1] {
		t.Fatalf("relevant feature must outscore noise: %v", w)
	}
	if w[0] < 0.2 {
		t.Fatalf("relevant feature score too low: %v", w[0])
	}
}

func TestReliefDegenerate(t *testing.T) {
	if w := ReliefScores(nil, nil, 10, rand.New(rand.NewSource(1))); w != nil {
		t.Fatal("empty input gives nil")
	}
	w := ReliefScores([][]float64{{1}}, []int{0}, 10, rand.New(rand.NewSource(1)))
	if w[0] != 0 {
		t.Fatal("single row gives zero weights")
	}
	// single class: no miss exists, weights stay zero
	rows := [][]float64{{1}, {2}, {3}}
	w2 := ReliefScores(rows, []int{0, 0, 0}, 10, rand.New(rand.NewSource(1)))
	if w2[0] != 0 {
		t.Fatal("single-class data gives zero weights")
	}
}

// Property: MI is non-negative and bounded by min(H(X), H(Y)).
func TestMutualInformationBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 100
		x := make([]int, n)
		y := make([]int, n)
		for i := 0; i < n; i++ {
			x[i] = rng.Intn(4)
			y[i] = (x[i] + rng.Intn(3)) % 4
		}
		mi := MutualInformation(x, y)
		bound := math.Min(Entropy(x), Entropy(y))
		return mi >= 0 && mi <= bound+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: Spearman is invariant under strictly monotone transforms.
func TestSpearmanMonotoneInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 60
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = x[i] + rng.NormFloat64()
		}
		r1 := Spearman(x, y)
		tx := make([]float64, n)
		for i, v := range x {
			tx[i] = math.Exp(v) // strictly increasing
		}
		r2 := Spearman(tx, y)
		return math.Abs(r1-r2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: SU is symmetric and in [0, 1].
func TestSymmetricUncertaintyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 80
		x := make([]int, n)
		y := make([]int, n)
		for i := 0; i < n; i++ {
			x[i] = rng.Intn(5)
			y[i] = rng.Intn(3)
		}
		a, b := SymmetricUncertainty(x, y), SymmetricUncertainty(y, x)
		return math.Abs(a-b) < 1e-9 && a >= 0 && a <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCorrectedMutualInformation(t *testing.T) {
	// Independent variables: raw MI estimate is biased upward, the
	// corrected estimate must be (near) zero.
	rng := rand.New(rand.NewSource(61))
	n := 300
	x := make([]int, n)
	y := make([]int, n)
	for i := range x {
		x[i] = rng.Intn(10)
		y[i] = rng.Intn(10)
	}
	raw := MutualInformation(x, y)
	corrected := CorrectedMutualInformation(x, y)
	if corrected >= raw {
		t.Fatalf("correction must reduce the estimate: %v vs %v", corrected, raw)
	}
	if corrected > 0.05 {
		t.Fatalf("independent vars corrected MI %v should be ~0", corrected)
	}
	// Strong dependence survives the correction.
	dep := CorrectedMutualInformation(x, x)
	if dep < Entropy(x)*0.8 {
		t.Fatalf("dependence must survive correction: %v vs H=%v", dep, Entropy(x))
	}
	if CorrectedMutualInformation([]int{-1}, []int{-1}) != 0 {
		t.Fatal("missing-only input gives 0")
	}
}

func TestCorrectedConditionalMutualInformation(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	n := 400
	x := make([]int, n)
	y := make([]int, n)
	z := make([]int, n)
	for i := range x {
		x[i] = rng.Intn(6)
		y[i] = rng.Intn(6)
		z[i] = rng.Intn(2)
	}
	raw := ConditionalMutualInformation(x, y, z)
	corrected := CorrectedConditionalMutualInformation(x, y, z)
	if corrected >= raw {
		t.Fatalf("cmi correction must reduce: %v vs %v", corrected, raw)
	}
	if corrected > 0.05 {
		t.Fatalf("independent corrected CMI %v should be ~0", corrected)
	}
	if CorrectedConditionalMutualInformation([]int{-1}, []int{0}, []int{0}) != 0 {
		t.Fatal("empty support gives 0")
	}
}

func TestEntropyDeterministicSummation(t *testing.T) {
	// Same multiset in different order must give bit-identical entropy
	// (guards the sorted-key summation that Run determinism relies on).
	a := []int{0, 1, 2, 3, 4, 0, 1, 2, 0, 1}
	b := []int{4, 3, 2, 1, 0, 2, 1, 0, 1, 0}
	if Entropy(a) != Entropy(b) {
		t.Fatal("entropy must not depend on input order")
	}
	if MutualInformation(a, a) != MutualInformation(b, b) {
		t.Fatal("MI must not depend on input order")
	}
}

func TestSpearmanPairwiseComplete(t *testing.T) {
	// A null row must be deleted BEFORE ranking (scipy's pairwise-complete
	// semantics). Ranking all rows first and dropping NaN pairs afterwards
	// correlates stale ranks: this case gives 10.5/sqrt(123) ~ 0.9468 under
	// that bug, versus the correct 3/sqrt(10).
	x := []float64{math.NaN(), 1, 2, 3, 4, 5}
	y := []float64{2, 0, 0, 1, 2, 2}
	want := 3 / math.Sqrt(10)
	approx(t, Spearman(x, y), want, 1e-12, "pairwise-complete spearman")
	// NaN in y must delete the same row.
	x2 := []float64{7, 1, 2, 3, 4, 5}
	y2 := []float64{math.NaN(), 0, 0, 1, 2, 2}
	approx(t, Spearman(x2, y2), want, 1e-12, "NaN in y")
	// Null-free inputs are untouched.
	approx(t, Spearman([]float64{1, 2, 3}, []float64{3, 5, 9}), 1, 1e-12, "clean fast path")
}

func TestSpearmanPairwiseMismatchDegrades(t *testing.T) {
	// Corrupt (length-mismatched) inputs degrade to the common prefix
	// instead of panicking.
	if got := Spearman([]float64{1}, []float64{1, 2}); got != 0 {
		t.Fatalf("mismatched Spearman = %v, want 0", got)
	}
	if got := Spearman([]float64{1, 2, 3, 4}, []float64{3, 5, 9}); got != 1 {
		t.Fatalf("prefix Spearman = %v, want 1", got)
	}
	if got := MutualInformation([]int{0, 1}, []int{0, 1, 0}); got < 0 {
		t.Fatalf("mismatched MI = %v, want >= 0", got)
	}
	if got := ConditionalMutualInformation([]int{0, 1}, []int{0, 1, 0}, []int{0}); got != 0 {
		t.Fatalf("mismatched CMI = %v, want 0", got)
	}
}
