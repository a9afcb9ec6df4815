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
	"cmp"
	"math"
	"slices"
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
	var r Ranker
	return r.Ranks(x)
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
	var r Ranker
	return r.Spearman(x, y)
}

// Ranker computes Ranks and Spearman into buffers it keeps between calls,
// so ranking many columns allocates once. The zero value is ready to use.
// A Ranker must not be shared between goroutines, and the slice its Ranks
// returns is overwritten by its next call.
type Ranker struct {
	pairs          []rankPair
	cx, cy, rx, ry []float64
}

// rankPair is a non-NaN value of the column being ranked and its row.
type rankPair struct {
	v float64
	i int
}

// Ranks is the package-level Ranks, written into r's buffer.
func (r *Ranker) Ranks(x []float64) []float64 {
	r.rx = r.ranksInto(r.rx, x)
	return r.rx
}

// Spearman is the package-level Spearman, computed in r's buffers.
func (r *Ranker) Spearman(x, y []float64) float64 {
	x, y = commonPrefix(x, y)
	if !allPresent(x, y) {
		r.cx, r.cy = slices.Grow(r.cx[:0], len(x)), slices.Grow(r.cy[:0], len(x))
		for i := range x {
			if !math.IsNaN(x[i]) && !math.IsNaN(y[i]) {
				r.cx = append(r.cx, x[i])
				r.cy = append(r.cy, y[i])
			}
		}
		x, y = r.cx, r.cy
	}
	r.rx = r.ranksInto(r.rx, x)
	r.ry = r.ranksInto(r.ry, y)
	return Pearson(r.rx, r.ry)
}

// ranksInto writes the ranks of x into dst, grown to len(x). Tied values
// get the mean of the ranks they span, so the order a sort leaves equal
// values in cannot change the output.
func (r *Ranker) ranksInto(dst, x []float64) []float64 {
	r.pairs = slices.Grow(r.pairs[:0], len(x))
	for i, v := range x {
		if !math.IsNaN(v) {
			r.pairs = append(r.pairs, rankPair{v, i})
		}
	}
	vals := r.pairs
	slices.SortFunc(vals, func(a, b rankPair) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		}
		return 0
	})
	dst = slices.Grow(dst[:0], len(x))[:len(x)]
	if len(vals) < len(x) {
		for i := range dst {
			dst[i] = math.NaN()
		}
	}
	for i := 0; i < len(vals); {
		j := i
		for j < len(vals) && vals[j].v == vals[i].v {
			j++
		}
		// average rank for the tie group [i, j)
		avg := (float64(i+1) + float64(j)) / 2
		for k := i; k < j; k++ {
			dst[vals[k].i] = avg
		}
		i = j
	}
	return dst
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

// allPresent reports whether no row of x or y is NaN.
func allPresent(x, y []float64) bool {
	for i := range x {
		if math.IsNaN(x[i]) || math.IsNaN(y[i]) {
			return false
		}
	}
	return true
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
// distorted. Otherwise the bins span the finite values, −Inf and +Inf go
// to the first and last bin, and a span too wide for float64 is binned on
// halved values, so every non-NaN value gets a code in [0, bins).
func Discretize(x []float64, bins int) []int {
	return AppendDiscretize(make([]int, 0, len(x)), x, bins)
}

// AppendDiscretize appends the Discretize codes of x to dst and returns
// the extended slice, so a caller binning many columns can reuse one
// buffer.
func AppendDiscretize(dst []int, x []float64, bins int) []int {
	if bins < 2 {
		bins = 2
	}
	// Up to bins+1 distinct values, kept sorted; the (bins+1)-th tells the
	// binned case from the discrete one. == folds −0 into +0.
	var buf [16]float64
	distinct := buf[:0]
	if bins+1 > len(buf) {
		distinct = make([]float64, 0, bins+1)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range x {
		if math.IsNaN(v) {
			continue
		}
		if !math.IsInf(v, 0) {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if len(distinct) <= bins {
			distinct = insertSorted(distinct, v)
		}
	}
	n := len(dst)
	dst = slices.Grow(dst, len(x))[:n+len(x)]
	out := dst[n:]
	if len(distinct) <= bins {
		// Already discrete: stable code per sorted distinct value.
		for i, v := range x {
			out[i] = -1
			for c, d := range distinct {
				if d == v {
					out[i] = c
					break
				}
			}
		}
		return dst
	}
	span := hi - lo
	// float64(bins)*(v-lo) overflows only when bins·span does.
	halved := math.IsInf(float64(bins)*span, 1)
	for i, v := range x {
		switch {
		case math.IsNaN(v):
			out[i] = -1
		case math.IsInf(v, -1):
			out[i] = 0
		case math.IsInf(v, 1):
			out[i] = bins - 1
		case span == 0:
			out[i] = 0
		default:
			var b int
			if halved {
				b = int(float64(bins) * ((v/2 - lo/2) / (hi/2 - lo/2)))
			} else {
				b = int(float64(bins) * (v - lo) / span)
			}
			if b >= bins {
				b = bins - 1
			}
			out[i] = b
		}
	}
	return dst
}

// insertSorted adds v to the ascending slice s unless an equal value is
// already there.
func insertSorted(s []float64, v float64) []float64 {
	i := 0
	for i < len(s) && s[i] < v {
		i++
	}
	if i < len(s) && s[i] == v {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// The kernels below count codes into dense tables indexed by code and sum
// them cell by cell in ascending code order, skipping empty cells. That is
// the sorted-key order in which map counting would sum, so both give the
// same bits; the map forms remain only for code ranges whose table would
// exceed maxDenseCells. Discretize emits fewer than bins codes, and feature
// selection hands labels over as class ids 0..k−1, so every table it
// builds is dense. Tables of up to stackCells cells (four times that for
// the z×x×y tables of conditional MI), and count vectors of up to
// stackCounts entries, live on the stack.
const (
	maxDenseCells = 1 << 14
	stackCells    = 256
	stackCounts   = 64
)

// zeroed returns buf[:n] cleared, or a fresh slice when buf is too short.
func zeroed(buf []int, n int) []int {
	if n > len(buf) {
		return make([]int, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// maxCode returns the largest code in x, or -1 when every code is missing.
func maxCode(x []int) int {
	m := -1
	for _, v := range x {
		if v > m {
			m = v
		}
	}
	return m
}

// Entropy returns the Shannon entropy (nats) of the discrete variable x.
// Codes < 0 (missing) are skipped.
func Entropy(x []int) float64 {
	m := maxCode(x)
	if m < 0 {
		return 0
	}
	if m >= maxDenseCells {
		return entropyMap(x)
	}
	var buf [stackCounts]int
	counts := zeroed(buf[:], m+1)
	n := 0
	for _, v := range x {
		if v >= 0 {
			counts[v]++
			n++
		}
	}
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(n)
		h -= p * math.Log(p)
	}
	return h
}

func entropyMap(x []int) float64 {
	counts := make(map[int]int, 16)
	n := 0
	for _, v := range x {
		if v >= 0 {
			counts[v]++
			n++
		}
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

// supportSize returns the number of distinct non-missing codes in z.
func supportSize(z []int) int {
	m := maxCode(z)
	if m >= maxDenseCells {
		s := make(map[int]struct{}, 16)
		for _, v := range z {
			if v >= 0 {
				s[v] = struct{}{}
			}
		}
		return len(s)
	}
	var buf [stackCounts]int
	seen := zeroed(buf[:], m+1)
	k := 0
	for _, v := range z {
		if v >= 0 && seen[v] == 0 {
			seen[v] = 1
			k++
		}
	}
	return k
}

// MutualInformation returns I(X;Y) in nats for discrete variables, skipping
// rows where either code is < 0. I is symmetric and zero for independent
// variables; this is the paper's "information gain" relevance metric.
// Mismatched lengths degrade to the common prefix instead of panicking.
func MutualInformation(x, y []int) float64 {
	mi, _, _, _ := mutualInformation(x, y)
	return mi
}

// CorrectedMutualInformation returns the Miller–Madow bias-corrected MI
// estimate: the maximum-likelihood estimator overestimates by roughly
// (kx−1)(ky−1)/(2n) nats, which matters when many near-independent feature
// pairs are compared (the MRMR penalty term sums exactly such pairs).
// Clamped at zero. Mismatched lengths degrade to the common prefix.
func CorrectedMutualInformation(x, y []int) float64 {
	mi, kx, ky, n := mutualInformation(x, y)
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
// strata, approximately (kx−1)(ky−1)·kz/(2n). kx, ky and n count the rows
// where x and y are both present, and kz the codes z takes anywhere.
// Clamped at zero. Mismatched lengths degrade to the common prefix.
func CorrectedConditionalMutualInformation(x, y, z []int) float64 {
	x, y, z = commonPrefix3(x, y, z)
	cmi, kx, ky, n := conditionalMutualInformation(x, y, z)
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

// ConditionalMutualInformation returns I(X;Y|Z) in nats for discrete
// variables: sum_z p(z) * I(X;Y | Z=z). Rows with any negative code are
// skipped. Mismatched lengths degrade to the common prefix instead of
// panicking.
func ConditionalMutualInformation(x, y, z []int) float64 {
	cmi, _, _, _ := conditionalMutualInformation(commonPrefix3(x, y, z))
	return cmi
}

// commonPrefix3 truncates three code slices to the shortest length (see
// commonPrefix).
func commonPrefix3(x, y, z []int) ([]int, []int, []int) {
	if n := min(len(x), len(y), len(z)); n != len(x) || n != len(y) || n != len(z) {
		return x[:n], y[:n], z[:n]
	}
	return x, y, z
}

// mutualInformation returns I(X;Y) together with the support sizes of x
// and y and the number of rows where both are present, all from one count.
func mutualInformation(x, y []int) (mi float64, kx, ky, n int) {
	if n := min(len(x), len(y)); n != len(x) || n != len(y) {
		x, y = x[:n], y[:n]
	}
	mx, my := -1, -1
	for i := range x {
		if x[i] < 0 || y[i] < 0 {
			continue
		}
		mx = max(mx, x[i])
		my = max(my, y[i])
	}
	if mx < 0 {
		return 0, 0, 0, 0
	}
	if mx >= maxDenseCells || my >= maxDenseCells || (mx+1)*(my+1) > maxDenseCells {
		return mutualInformationMap(x, y)
	}
	rx, ry := mx+1, my+1
	var tbuf [stackCells]int
	var mbuf [stackCounts]int
	t := zeroed(tbuf[:], rx*ry)
	for i := range x {
		if x[i] < 0 || y[i] < 0 {
			continue
		}
		t[x[i]*ry+y[i]]++
	}
	return tableMI(t, rx, ry, mbuf[:])
}

// tableMI returns I(X;Y), the support sizes and the row count of a dense
// rx×ry count table, using scratch for the marginals.
func tableMI(t []int, rx, ry int, scratch []int) (mi float64, kx, ky, n int) {
	m := zeroed(scratch, rx+ry)
	mx, my := m[:rx], m[rx:]
	for xi := 0; xi < rx; xi++ {
		row := t[xi*ry : (xi+1)*ry]
		for yi, c := range row {
			mx[xi] += c
			my[yi] += c
		}
		if mx[xi] > 0 {
			kx++
			n += mx[xi]
		}
	}
	if n == 0 {
		return 0, 0, 0, 0
	}
	for _, c := range my {
		if c > 0 {
			ky++
		}
	}
	fn := float64(n)
	for xi := 0; xi < rx; xi++ {
		row := t[xi*ry : (xi+1)*ry]
		for yi, c := range row {
			if c == 0 {
				continue
			}
			pxy := float64(c) / fn
			px := float64(mx[xi]) / fn
			py := float64(my[yi]) / fn
			mi += pxy * math.Log(pxy/(px*py))
		}
	}
	if mi < 0 {
		mi = 0 // floating point guard; MI is non-negative
	}
	return mi, kx, ky, n
}

func mutualInformationMap(x, y []int) (mi float64, kx, ky, n int) {
	joint := make(map[[2]int]int, 64)
	mx := make(map[int]int, 16)
	my := make(map[int]int, 16)
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
		return 0, 0, 0, 0
	}
	fn := float64(n)
	// Deterministic summation order (see entropyMap).
	keys := make([][2]int, 0, len(joint))
	for k := range joint {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b [2]int) int {
		if a[0] != b[0] {
			return cmp.Compare(a[0], b[0])
		}
		return cmp.Compare(a[1], b[1])
	})
	for _, k := range keys {
		pxy := float64(joint[k]) / fn
		px := float64(mx[k[0]]) / fn
		py := float64(my[k[1]]) / fn
		mi += pxy * math.Log(pxy/(px*py))
	}
	if mi < 0 {
		mi = 0 // floating point guard; MI is non-negative
	}
	return mi, len(mx), len(my), n
}

// conditionalMutualInformation returns I(X;Y|Z) of equal-length codes,
// and the support sizes and row count of x and y over the rows where both
// are present (whatever z holds there), all from one count.
func conditionalMutualInformation(x, y, z []int) (cmi float64, kx, ky, n int) {
	mx, my, mz := -1, -1, -1
	for i := range x {
		if x[i] < 0 || y[i] < 0 {
			continue
		}
		mx = max(mx, x[i])
		my = max(my, y[i])
		mz = max(mz, z[i])
	}
	if mx < 0 {
		return 0, 0, 0, 0
	}
	if mx >= maxDenseCells || my >= maxDenseCells || mz >= maxDenseCells ||
		(mx+1)*(my+1) > maxDenseCells/(mz+2) {
		return conditionalMutualInformationMap(x, y, z)
	}
	// Slab 0 counts the rows whose z is missing, slab z+1 those with z.
	rx, ry, slab := mx+1, my+1, (mx+1)*(my+1)
	var tbuf [4 * stackCells]int
	var mbuf [stackCounts]int
	t := zeroed(tbuf[:], (mz+2)*slab)
	rows := 0
	for i := range x {
		if x[i] < 0 || y[i] < 0 {
			continue
		}
		s := max(z[i]+1, 0)
		if s > 0 {
			rows++
		}
		t[s*slab+x[i]*ry+y[i]]++
	}
	for s := 1; s <= mz+1 && rows > 0; s++ {
		miz, _, _, nz := tableMI(t[s*slab:(s+1)*slab], rx, ry, mbuf[:])
		if nz > 0 {
			cmi += float64(nz) / float64(rows) * miz
		}
	}
	// Fold every slab into the first for the support of x and y.
	for s := 1; s <= mz+1; s++ {
		for c, v := range t[s*slab : (s+1)*slab] {
			t[c] += v
		}
	}
	_, kx, ky, n = tableMI(t[:slab], rx, ry, mbuf[:])
	return cmi, kx, ky, n
}

func conditionalMutualInformationMap(x, y, z []int) (cmi float64, kx, ky, n int) {
	// Group rows by z, then compute MI within each group.
	groups := make(map[int][]int, 8)
	complete := 0
	for i := range x {
		if x[i] < 0 || y[i] < 0 || z[i] < 0 {
			continue
		}
		groups[z[i]] = append(groups[z[i]], i)
		complete++
	}
	zs := make([]int, 0, len(groups))
	for z := range groups {
		zs = append(zs, z)
	}
	sort.Ints(zs)
	for _, zv := range zs {
		rows := groups[zv]
		gx := make([]int, len(rows))
		gy := make([]int, len(rows))
		for j, i := range rows {
			gx[j] = x[i]
			gy[j] = y[i]
		}
		cmi += float64(len(rows)) / float64(complete) * MutualInformation(gx, gy)
	}
	_, kx, ky, n = mutualInformation(x, y)
	return cmi, kx, ky, n
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
