package stats

import (
	"math"
	"sort"
)

// The functions below are the map-based and sort.Slice-based kernels the
// package shipped before its dense kernels, kept verbatim (only renamed)
// as the references that the differential test and FuzzKernels hold the
// dense kernels to, bit for bit.

func refRanks(x []float64) []float64 {
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

func refSpearman(x, y []float64) float64 {
	x, y = refPairwiseComplete(x, y)
	return Pearson(refRanks(x), refRanks(y))
}

func refPairwiseComplete(x, y []float64) ([]float64, []float64) {
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

func refDiscretize(x []float64, bins int) []int {
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

func refEntropy(x []int) float64 {
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

func refMutualInformation(x, y []int) float64 {
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

func refCorrectedMutualInformation(x, y []int) float64 {
	mi := refMutualInformation(x, y)
	kx, ky, n := refJointSupport(x, y)
	if n == 0 {
		return 0
	}
	mi -= float64((kx-1)*(ky-1)) / (2 * float64(n))
	if mi < 0 {
		return 0
	}
	return mi
}

func refCorrectedConditionalMutualInformation(x, y, z []int) float64 {
	cmi := refConditionalMutualInformation(x, y, z)
	kx, ky, n := refJointSupport(x, y)
	kz := refSupportSize(z)
	if n == 0 || kz == 0 {
		return 0
	}
	cmi -= float64((kx-1)*(ky-1)*kz) / (2 * float64(n))
	if cmi < 0 {
		return 0
	}
	return cmi
}

func refJointSupport(x, y []int) (kx, ky, n int) {
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

func refSupportSize(z []int) int {
	s := make(map[int]struct{}, 16)
	for _, v := range z {
		if v >= 0 {
			s[v] = struct{}{}
		}
	}
	return len(s)
}

func refConditionalMutualInformation(x, y, z []int) float64 {
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
		cmi += float64(len(rows)) / float64(n) * refMutualInformation(gx, gy)
	}
	return cmi
}

func refSymmetricUncertainty(x, y []int) float64 {
	hx, hy := refEntropy(x), refEntropy(y)
	if hx+hy == 0 {
		return 0
	}
	su := 2 * refMutualInformation(x, y) / (hx + hy)
	return math.Max(0, math.Min(1, su))
}
