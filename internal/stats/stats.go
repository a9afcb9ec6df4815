// Package stats provides the statistical and information-theoretic
// primitives behind AutoFeat's relevance and redundancy analyses:
// correlation coefficients (Pearson, Spearman), Shannon entropy, mutual
// information and conditional mutual information over discretised features,
// and supporting utilities (ranking, discretisation, normalisation).
//
// All estimators skip rows where either input is NaN (null), matching the
// pairwise-complete convention used by dataframe libraries.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of the non-NaN entries, or NaN if none.
func Mean(x []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range x {
		if !math.IsNaN(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Pearson returns the Pearson correlation coefficient between x and y,
// computed over rows where both are non-NaN. Returns 0 when either variable
// is constant (no linear association can be measured) or fewer than two
// complete pairs exist. Mismatched lengths — the signature of a corrupt
// table — degrade to the common prefix instead of panicking, so one bad
// input prunes one feature rather than killing the process.
func Pearson(x, y []float64) float64 {
	x, y = commonPrefix(x, y)
	var sx, sy, sxx, syy, sxy float64
	n := 0
	for i := range x {
		if math.IsNaN(x[i]) || math.IsNaN(y[i]) {
			continue
		}
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		syy += y[i] * y[i]
		sxy += x[i] * y[i]
		n++
	}
	if n < 2 {
		return 0
	}
	fn := float64(n)
	cov := sxy - sx*sy/fn
	vx := sxx - sx*sx/fn
	vy := syy - sy*sy/fn
	if vx <= 0 || vy <= 0 {
		return 0
	}
	r := cov / math.Sqrt(vx*vy)
	// Guard against floating point drift outside [-1, 1].
	return math.Max(-1, math.Min(1, r))
}

// Ranks returns the fractional (average) ranks of x in [1, n], assigning
// tied values the mean of the ranks they span. NaN entries receive NaN
// ranks, so downstream Pearson skips them.
func Ranks(x []float64) []float64 {
	type iv struct {
		i int
		v float64
	}
	vals := make([]iv, 0, len(x))
	for i, v := range x {
		if !math.IsNaN(v) {
			vals = append(vals, iv{i, v})
		}
	}
	sort.Slice(vals, func(a, b int) bool { return vals[a].v < vals[b].v })
	out := make([]float64, len(x))
	for i := range out {
		out[i] = math.NaN()
	}
	for i := 0; i < len(vals); {
		j := i
		for j < len(vals) && vals[j].v == vals[i].v {
			j++
		}
		// average rank for the tie group [i, j)
		avg := (float64(i+1) + float64(j)) / 2
		for k := i; k < j; k++ {
			out[vals[k].i] = avg
		}
		i = j
	}
	return out
}

// Spearman returns the Spearman rank correlation coefficient: Pearson
// correlation over fractional ranks, which handles ties correctly.
//
// Rows where either input is NaN are deleted BEFORE ranking (scipy's
// pairwise-complete semantics): ranking first and deleting afterwards
// would correlate ranks computed over different row sets, which skews the
// coefficient whenever the deletion changes the tie structure or spacing
// of the surviving ranks.
func Spearman(x, y []float64) float64 {
	x, y = pairwiseComplete(x, y)
	return Pearson(Ranks(x), Ranks(y))
}

// commonPrefix truncates both slices to the shorter length. Length
// mismatches only arise from corrupt input; degrading to the shared rows
// keeps the estimators total (no panics on user-reachable paths).
func commonPrefix(x, y []float64) ([]float64, []float64) {
	if len(x) == len(y) {
		return x, y
	}
	n := min(len(x), len(y))
	return x[:n], y[:n]
}

// pairwiseComplete returns x and y restricted to rows where both are
// non-NaN. When every row is complete the inputs are returned as-is.
// Mismatched lengths degrade to the common prefix (see commonPrefix).
func pairwiseComplete(x, y []float64) ([]float64, []float64) {
	x, y = commonPrefix(x, y)
	n := 0
	for i := range x {
		if !math.IsNaN(x[i]) && !math.IsNaN(y[i]) {
			n++
		}
	}
	if n == len(x) {
		return x, y
	}
	cx := make([]float64, 0, n)
	cy := make([]float64, 0, n)
	for i := range x {
		if !math.IsNaN(x[i]) && !math.IsNaN(y[i]) {
			cx = append(cx, x[i])
			cy = append(cy, y[i])
		}
	}
	return cx, cy
}

// MinMaxNormalize rescales non-NaN entries to [0, 1] in place and returns
// the slice. A constant vector maps to all zeros.
func MinMaxNormalize(x []float64) []float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range x {
		if math.IsNaN(v) {
			continue
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	span := hi - lo
	for i, v := range x {
		if math.IsNaN(v) {
			continue
		}
		if span == 0 {
			x[i] = 0
		} else {
			x[i] = (v - lo) / span
		}
	}
	return x
}

// DefaultBins is the number of bins used when discretising continuous
// features for entropy-based estimators. Ten equal-width bins is the common
// default in feature-selection toolkits (e.g. scikit-feature).
const DefaultBins = 10

// Discretize maps continuous values to integer bin codes using equal-width
// binning with the given bin count. NaN entries map to code -1 (treated as
// "missing" by the entropy estimators). Values with few distinct levels
// (≤ bins) keep one code per level, so already-discrete features are not
// distorted.
func Discretize(x []float64, bins int) []int {
	if bins < 2 {
		bins = 2
	}
	distinct := make(map[float64]struct{}, bins+1)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range x {
		if math.IsNaN(v) {
			continue
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
		if len(distinct) <= bins {
			distinct[v] = struct{}{}
		}
	}
	out := make([]int, len(x))
	if len(distinct) <= bins {
		// Already discrete: stable code per sorted distinct value.
		vals := make([]float64, 0, len(distinct))
		for v := range distinct {
			vals = append(vals, v)
		}
		sort.Float64s(vals)
		code := make(map[float64]int, len(vals))
		for i, v := range vals {
			code[v] = i
		}
		for i, v := range x {
			if math.IsNaN(v) {
				out[i] = -1
			} else {
				out[i] = code[v]
			}
		}
		return out
	}
	span := hi - lo
	for i, v := range x {
		switch {
		case math.IsNaN(v):
			out[i] = -1
		case span == 0:
			out[i] = 0
		default:
			b := int(float64(bins) * (v - lo) / span)
			if b >= bins {
				b = bins - 1
			}
			out[i] = b
		}
	}
	return out
}

// Entropy returns the Shannon entropy (nats) of the discrete variable x.
// Codes < 0 (missing) are skipped.
func Entropy(x []int) float64 {
	counts := make(map[int]int, 16)
	n := 0
	for _, v := range x {
		if v >= 0 {
			counts[v]++
			n++
		}
	}
	if n == 0 {
		return 0
	}
	// Sum in sorted-key order: float addition is not associative, and map
	// iteration order would make results differ between identical runs.
	keys := make([]int, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	h := 0.0
	for _, k := range keys {
		p := float64(counts[k]) / float64(n)
		h -= p * math.Log(p)
	}
	return h
}

// MutualInformation returns I(X;Y) in nats for discrete variables, skipping
// rows where either code is < 0. I is symmetric and zero for independent
// variables; this is the paper's "information gain" relevance metric.
// Mismatched lengths degrade to the common prefix instead of panicking.
func MutualInformation(x, y []int) float64 {
	if n := min(len(x), len(y)); n != len(x) || n != len(y) {
		x, y = x[:n], y[:n]
	}
	joint := make(map[[2]int]int, 64)
	mx := make(map[int]int, 16)
	my := make(map[int]int, 16)
	n := 0
	for i := range x {
		if x[i] < 0 || y[i] < 0 {
			continue
		}
		joint[[2]int{x[i], y[i]}]++
		mx[x[i]]++
		my[y[i]]++
		n++
	}
	if n == 0 {
		return 0
	}
	fn := float64(n)
	// Deterministic summation order (see Entropy).
	keys := make([][2]int, 0, len(joint))
	for k := range joint {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	mi := 0.0
	for _, k := range keys {
		pxy := float64(joint[k]) / fn
		px := float64(mx[k[0]]) / fn
		py := float64(my[k[1]]) / fn
		mi += pxy * math.Log(pxy/(px*py))
	}
	if mi < 0 {
		mi = 0 // floating point guard; MI is non-negative
	}
	return mi
}

// CorrectedMutualInformation returns the Miller–Madow bias-corrected MI
// estimate: the maximum-likelihood estimator overestimates by roughly
// (kx−1)(ky−1)/(2n) nats, which matters when many near-independent feature
// pairs are compared (the MRMR penalty term sums exactly such pairs).
// Clamped at zero.
func CorrectedMutualInformation(x, y []int) float64 {
	mi := MutualInformation(x, y)
	kx, ky, n := jointSupport(x, y)
	if n == 0 {
		return 0
	}
	mi -= float64((kx-1)*(ky-1)) / (2 * float64(n))
	if mi < 0 {
		return 0
	}
	return mi
}

// CorrectedConditionalMutualInformation applies the Miller–Madow-style
// correction to I(X;Y|Z): the bias grows with the number of conditioning
// strata, approximately (kx−1)(ky−1)·kz/(2n). Clamped at zero.
func CorrectedConditionalMutualInformation(x, y, z []int) float64 {
	cmi := ConditionalMutualInformation(x, y, z)
	kx, ky, n := jointSupport(x, y)
	kz := supportSize(z)
	if n == 0 || kz == 0 {
		return 0
	}
	cmi -= float64((kx-1)*(ky-1)*kz) / (2 * float64(n))
	if cmi < 0 {
		return 0
	}
	return cmi
}

// jointSupport returns the observed support sizes of x and y and the
// number of complete (non-missing) rows.
func jointSupport(x, y []int) (kx, ky, n int) {
	sx := make(map[int]struct{}, 16)
	sy := make(map[int]struct{}, 16)
	for i := range x {
		if x[i] < 0 || y[i] < 0 {
			continue
		}
		sx[x[i]] = struct{}{}
		sy[y[i]] = struct{}{}
		n++
	}
	return len(sx), len(sy), n
}

func supportSize(z []int) int {
	s := make(map[int]struct{}, 16)
	for _, v := range z {
		if v >= 0 {
			s[v] = struct{}{}
		}
	}
	return len(s)
}

// ConditionalMutualInformation returns I(X;Y|Z) in nats for discrete
// variables: sum_z p(z) * I(X;Y | Z=z). Rows with any negative code are
// skipped. Mismatched lengths degrade to the common prefix instead of
// panicking.
func ConditionalMutualInformation(x, y, z []int) float64 {
	if n := min(len(x), min(len(y), len(z))); n != len(x) || n != len(y) || n != len(z) {
		x, y, z = x[:n], y[:n], z[:n]
	}
	// Group rows by z, then compute MI within each group.
	groups := make(map[int][]int, 8)
	n := 0
	for i := range x {
		if x[i] < 0 || y[i] < 0 || z[i] < 0 {
			continue
		}
		groups[z[i]] = append(groups[z[i]], i)
		n++
	}
	if n == 0 {
		return 0
	}
	zs := make([]int, 0, len(groups))
	for z := range groups {
		zs = append(zs, z)
	}
	sort.Ints(zs)
	cmi := 0.0
	for _, zv := range zs {
		rows := groups[zv]
		gx := make([]int, len(rows))
		gy := make([]int, len(rows))
		for j, i := range rows {
			gx[j] = x[i]
			gy[j] = y[i]
		}
		cmi += float64(len(rows)) / float64(n) * MutualInformation(gx, gy)
	}
	return cmi
}

// SymmetricUncertainty returns SU(X,Y) = 2*I(X;Y)/(H(X)+H(Y)), a normalised
// correlation in [0,1]; 0 means independent, 1 means fully dependent. SU
// compensates for information gain's bias toward many-valued features.
func SymmetricUncertainty(x, y []int) float64 {
	hx, hy := Entropy(x), Entropy(y)
	if hx+hy == 0 {
		return 0
	}
	su := 2 * MutualInformation(x, y) / (hx + hy)
	return math.Max(0, math.Min(1, su))
}

// InformationGain is an alias for mutual information with the label, named
// as the paper's Section V-C relevance metric.
func InformationGain(x, y []int) float64 { return MutualInformation(x, y) }
