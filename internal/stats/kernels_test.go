package stats

import (
	"math"
	"math/rand"
	"testing"
)

// bitsEqual reports whether a and b are the same float64 bit pattern.
func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func floatsBitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bitsEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func prefix3(x, y, z []int) ([]int, []int, []int) {
	n := min(len(x), len(y), len(z))
	return x[:n], y[:n], z[:n]
}

// checkKernels compares every dense kernel with its reference on one
// input, bit for bit. The corrected estimators of the reference indexed
// past the end of a shorter y and counted kz over all of z; the dense
// ones degrade to the common prefix like every other estimator, so they
// are held to the reference on that prefix.
func checkKernels(t *testing.T, x, y, z []int, fx, fy []float64, bins int) {
	t.Helper()
	fail := func(name string, got, want any) {
		t.Helper()
		t.Fatalf("%s differs from the reference:\n got %v\nwant %v\n x=%v\n y=%v\n z=%v\n fx=%v\n fy=%v\n bins=%d",
			name, got, want, x, y, z, fx, fy, bins)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"MutualInformation", MutualInformation(x, y), refMutualInformation(x, y)},
		{"MutualInformation(y,x)", MutualInformation(y, x), refMutualInformation(y, x)},
		{"CorrectedMutualInformation", CorrectedMutualInformation(x, y), refCorrectedMutualInformation(commonPrefixInts(x, y))},
		{"ConditionalMutualInformation", ConditionalMutualInformation(x, y, z), refConditionalMutualInformation(x, y, z)},
		{"CorrectedConditionalMutualInformation", CorrectedConditionalMutualInformation(x, y, z), refCorrectedConditionalMutualInformation(prefix3(x, y, z))},
		{"Entropy", Entropy(x), refEntropy(x)},
		{"SymmetricUncertainty", SymmetricUncertainty(x, y), refSymmetricUncertainty(x, y)},
		{"Spearman", Spearman(fx, fy), refSpearman(fx, fy)},
	} {
		if !bitsEqual(c.got, c.want) {
			fail(c.name, c.got, c.want)
		}
	}
	if got, want := supportSize(z), refSupportSize(z); got != want {
		fail("supportSize", got, want)
	}
	if got, want := Ranks(fx), refRanks(fx); !floatsBitsEqual(got, want) {
		fail("Ranks", got, want)
	}
	// A reused Ranker must give the same bits as a fresh one.
	var r Ranker
	r.Ranks(fy)
	if got, want := r.Ranks(fx), refRanks(fx); !floatsBitsEqual(got, want) {
		fail("Ranker.Ranks", got, want)
	}
	if got, want := r.Spearman(fx, fy), refSpearman(fx, fy); !bitsEqual(got, want) {
		fail("Ranker.Spearman", got, want)
	}
	for _, col := range [][]float64{fx, fy} {
		if !finiteSpan(col, bins) {
			continue
		}
		want := refDiscretize(col, bins)
		if got := Discretize(col, bins); !intsEqual(got, want) {
			fail("Discretize", got, want)
		}
		// Appending after earlier codes must leave them and add the same.
		got := AppendDiscretize([]int{7, -1}, col, bins)
		if len(got) < 2 || got[0] != 7 || got[1] != -1 || !intsEqual(got[2:], want) {
			fail("AppendDiscretize", got, want)
		}
	}
}

func commonPrefixInts(x, y []int) ([]int, []int) {
	n := min(len(x), len(y))
	return x[:n], y[:n]
}

// finiteSpan reports whether x holds no infinity and bins·(max−min) of
// its values fits a float64: the inputs on which the reference Discretize
// is well defined.
func finiteSpan(x []float64, bins int) bool {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range x {
		if math.IsInf(v, 0) {
			return false
		}
		if !math.IsNaN(v) {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
	}
	return hi < lo || !math.IsInf(float64(max(bins, 2))*(hi-lo), 0)
}

// kernelScales multiply codes so that the tables stay dense (1, 3) or
// exceed maxDenseCells and take the map fallback (1500 overflows only the
// product of two ranges, 1<<20 a single range).
var kernelScales = [...]int{1, 3, 1500, 1 << 20}

// kernelFloats are the float cells the decoder draws from: ties, ±0, NaN
// and magnitudes far apart.
var kernelFloats = [...]float64{math.NaN(), math.Copysign(0, -1), 0, 1, 1, 2, -3.5, 1e-300, 7, 7, 100, -1e10, 0.5, 3, 42, 2.25}

// kernelLevelCounts are the level counts of the few-level columns the
// decoder draws: labels of 1–3 classes, and counts on both sides of
// levelCap, where ranks switch from counting to sorting.
var kernelLevelCounts = [...]int{1, 2, 3, levelCap - 1, levelCap, levelCap + 1, levelCap + 2}

// kernelLevels returns the values of the few-level column mode draws
// from, or nil for mode 0, which keeps kernelFloats. A mode picks a count
// from kernelLevelCounts and whether −Inf and +Inf replace the lowest and
// highest level. Every set but {−Inf} and {−Inf, +Inf} holds 0, which
// the decoder writes as −0 or +0, one level.
func kernelLevels(mode int) []float64 {
	mode %= 1 + 2*len(kernelLevelCounts)
	if mode == 0 {
		return nil
	}
	k := kernelLevelCounts[(mode-1)/2]
	levels := make([]float64, k)
	for j := range levels {
		levels[j] = float64(j-k/2) * 1.5
	}
	if mode%2 == 0 {
		levels[0] = math.Inf(-1)
		if k > 1 {
			levels[k-1] = math.Inf(1)
		}
	}
	return levels
}

// decodeKernelInput turns fuzz bytes into codes (−1 missing, otherwise a
// multiple of scale) and float columns. The first three bytes trim the
// lengths of y, z and fy, so lengths mismatch on some inputs. scale>>2
// picks the kernelLevels mode: in a few-level mode fx draws from the
// levels with some NaN, and fy is a label of 1–3 classes.
func decodeKernelInput(data []byte, scale uint8) (x, y, z []int, fx, fy []float64, bins int) {
	if len(data) < 3 {
		return nil, nil, nil, nil, nil, 2
	}
	head, body := data[:3], data[3:]
	bins = 2 + int(head[0])%31
	s := kernelScales[int(scale)%len(kernelScales)]
	levels := kernelLevels(int(scale >> 2))
	classes := 1 + int(head[1]>>2)%3
	code := func(b byte, k int) int {
		c := int(b)%k - 1
		if c < 0 {
			return c
		}
		return c * s
	}
	float := func(b byte) float64 {
		if b&0x80 == 0 {
			return kernelFloats[b&15]
		}
		return float64(int8(b<<1)) * 1.37
	}
	if levels != nil {
		float = func(b byte) float64 {
			if b&15 == 15 {
				return math.NaN()
			}
			v := levels[int(b>>1)%len(levels)]
			if v == 0 && b&1 == 1 {
				v = math.Copysign(0, -1)
			}
			return v
		}
	}
	label := func(b byte) float64 {
		if levels == nil {
			return float(b)
		}
		return float64(int(b) % classes)
	}
	n := len(body)
	trim := func(b byte) int { return max(0, n-int(b)%4) }
	for i, b := range body {
		x = append(x, code(b, 13))
		fx = append(fx, float(b))
		if i < trim(head[1]) {
			y = append(y, code(b>>4|b<<4, 12))
			fy = append(fy, label(b*37+11))
		}
		if i < trim(head[2]) {
			z = append(z, code(b*7+3, 4))
		}
	}
	return x, y, z, fx, fy, bins
}

// TestKernelsMatchReference is the differential test of the dense kernels
// against the map and sort.Slice references, over random inputs: missing
// codes, mismatched lengths, empty input, code ranges above the dense
// bound, and float columns with ties, NaN and ±0.
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for it := 0; it < 1500; it++ {
		n := rng.Intn(300)
		if it%50 == 0 {
			n = 0
		}
		data := make([]byte, n+3)
		rng.Read(data)
		x, y, z, fx, fy, bins := decodeKernelInput(data, uint8(it))
		checkKernels(t, x, y, z, fx, fy, bins)
	}
	// Continuous columns of many distinct values take the binned path of
	// Discretize, at every bin count feature selection uses.
	for it := 0; it < 300; it++ {
		n := 1 + rng.Intn(400)
		fx := make([]float64, n)
		fy := make([]float64, n)
		for i := range fx {
			fx[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
			fy[i] = math.Round(rng.Float64()*50) / 7
			if rng.Intn(10) == 0 {
				fx[i] = math.NaN()
			}
		}
		for _, bins := range []int{0, 2, 4, 10, 32, 2 * stackLevels} {
			x, y := Discretize(fx, bins), Discretize(fy, bins)
			z := Discretize(fy, 3)
			checkKernels(t, x, y, z, fx, fy, bins)
		}
	}
	// Columns at the level cap: exactly levelCap−1, levelCap and
	// levelCap+1 levels, each present, with −0 and +0 in one column, ±Inf
	// among the levels of some (Discretize is then held to no reference)
	// and NaN rows, against labels of 1–3 classes, at bin counts on both
	// sides of levelCap, and above stackLevels, where Discretize's level
	// map leaves the stack.
	for it := 0; it < 300; it++ {
		k := levelCap - 1 + it%3
		levels := make([]float64, k)
		for j := range levels {
			levels[j] = float64(j-k/2) * 0.75
		}
		if it%4 == 1 {
			levels[0], levels[k-1] = math.Inf(-1), math.Inf(1)
		}
		n := k + rng.Intn(200)
		fx := make([]float64, n)
		fy := make([]float64, n)
		classes := 1 + it/3%3
		for i := range fx {
			v := levels[i%k]
			if i >= k {
				v = levels[rng.Intn(k)]
				if rng.Intn(8) == 0 {
					v = math.NaN()
				}
			}
			if v == 0 && rng.Intn(2) == 0 {
				v = math.Copysign(0, -1)
			}
			fx[i] = v
			fy[i] = float64(rng.Intn(classes))
		}
		rng.Shuffle(n, func(i, j int) { fx[i], fx[j] = fx[j], fx[i] })
		for _, bins := range []int{levelCap - 1, levelCap, levelCap + 1, 10, 32, 2 * stackLevels} {
			x, y := Discretize(fx, bins), Discretize(fy, bins)
			z := Discretize(fy, 3)
			checkKernels(t, x, y, z, fx, fy, bins)
		}
	}
}

// TestDiscretizeNonFiniteAndWideSpans pins the codes of columns the
// reference binned into implementation-defined codes: −Inf, +Inf and a
// span wider than float64 can hold. Every non-NaN cell must get a code in
// [0, bins), with the infinities in the edge bins.
func TestDiscretizeNonFiniteAndWideSpans(t *testing.T) {
	inc := func(n int, extra ...float64) []float64 {
		x := make([]float64, 0, n+len(extra))
		for i := 0; i < n; i++ {
			x = append(x, float64(i))
		}
		return append(x, extra...)
	}
	wide := []float64{-1e308, 1e308, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1e307, -1e307, math.NaN()}
	for _, c := range []struct {
		name string
		x    []float64
	}{
		{"negative infinity", inc(12, math.Inf(-1))},
		{"positive infinity", inc(12, math.Inf(1))},
		{"both infinities", inc(12, math.Inf(-1), math.Inf(1), math.NaN())},
		{"overflowing span", wide},
		{"span overflowing only times bins", inc(11, 5e307, -5e307)},
	} {
		levels := map[float64]bool{}
		for _, v := range c.x {
			if !math.IsNaN(v) {
				levels[v] = true
			}
		}
		for _, bins := range []int{2, 10, 32} {
			// With at most bins levels each level keeps its own code.
			binned := len(levels) > bins
			codes := Discretize(c.x, bins)
			seen := map[int]bool{}
			for i, v := range c.x {
				code := codes[i]
				switch {
				case math.IsNaN(v):
					if code != -1 {
						t.Fatalf("%s, bins %d: NaN got code %d", c.name, bins, code)
					}
					continue
				case code < 0 || code >= bins:
					t.Fatalf("%s, bins %d: %v got code %d, want [0, %d)", c.name, bins, v, code, bins)
				case binned && math.IsInf(v, -1) && code != 0:
					t.Fatalf("%s, bins %d: -Inf got code %d, want 0", c.name, bins, code)
				case binned && math.IsInf(v, 1) && code != bins-1:
					t.Fatalf("%s, bins %d: +Inf got code %d, want %d", c.name, bins, code, bins-1)
				}
				seen[code] = true
			}
			if len(seen) < 2 {
				t.Fatalf("%s, bins %d: every value in one bin: %v", c.name, bins, codes)
			}
		}
	}
	// Finite values keep the codes they had before the infinities came in.
	base := inc(12)
	withInf := Discretize(inc(12, math.Inf(1)), 10)
	for i, want := range Discretize(base, 10) {
		if withInf[i] != want {
			t.Fatalf("finite value %v: code %d with +Inf present, %d without", base[i], withInf[i], want)
		}
	}
}

// FuzzKernels holds every dense kernel to its map or sort.Slice reference
// bit for bit (see checkKernels). The committed corpus covers empty input,
// missing codes, mismatched lengths and each code scale, including the
// ones that take the map fallback.
func FuzzKernels(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{3, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 200, 201}, uint8(0))
	f.Add([]byte{8, 1, 2, 0, 0, 0, 13, 26, 39, 255, 128, 127, 1}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, scale uint8) {
		x, y, z, fx, fy, bins := decodeKernelInput(data, scale)
		checkKernels(t, x, y, z, fx, fy, bins)
		for _, col := range [][]float64{fx, fy} {
			for i, c := range Discretize(col, bins) {
				if c < -1 || c >= bins || (c == -1) != math.IsNaN(col[i]) {
					t.Fatalf("Discretize(%v, %d)[%d] = %d", col, bins, i, c)
				}
			}
		}
	})
}
