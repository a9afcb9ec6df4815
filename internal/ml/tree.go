package ml

import (
	"math"
	"math/rand"
	"sort"
)

// defaultMaxBins is the histogram granularity for split finding. All tree
// models pre-bin features into at most this many value bins (plus a
// reserved missing bin), the optimisation LightGBM popularised; it bounds
// split-search cost at O(rows + bins) per feature per node.
const defaultMaxBins = 32

// missingBin is the reserved bin index for NaN cells. Missing values
// always route to the left child, a simple default-direction rule.
const missingBin = 0

// binner maps raw feature values to small integer bins using quantile cut
// points learned from the training matrix.
type binner struct {
	cuts [][]float64 // per feature, ascending thresholds
}

// fitBinner learns at most maxBins-1 quantile cuts per feature.
func fitBinner(X [][]float64, maxBins int) *binner {
	if len(X) == 0 {
		return &binner{}
	}
	d := len(X[0])
	b := &binner{cuts: make([][]float64, d)}
	vals := make([]float64, 0, len(X))
	for j := 0; j < d; j++ {
		vals = vals[:0]
		for _, r := range X {
			if !math.IsNaN(r[j]) {
				vals = append(vals, r[j])
			}
		}
		if len(vals) == 0 {
			continue
		}
		sort.Float64s(vals)
		cuts := make([]float64, 0, maxBins-1)
		for k := 1; k < maxBins; k++ {
			q := vals[len(vals)*k/maxBins]
			if len(cuts) == 0 || q > cuts[len(cuts)-1] {
				cuts = append(cuts, q)
			}
		}
		b.cuts[j] = cuts
	}
	return b
}

// bin maps one value of feature j to its bin: missingBin for NaN, else
// 1 + count of cuts strictly below v.
func (b *binner) bin(j int, v float64) uint8 {
	if math.IsNaN(v) {
		return missingBin
	}
	cuts := b.cuts[j]
	idx := sort.SearchFloat64s(cuts, v) // first cut >= v
	return uint8(1 + idx)
}

// numBins returns the number of bins for feature j including the missing
// bin.
func (b *binner) numBins(j int) int { return len(b.cuts[j]) + 2 }

// transform bins a whole matrix row-major.
func (b *binner) transform(X [][]float64) [][]uint8 {
	out := make([][]uint8, len(X))
	d := len(b.cuts)
	flat := make([]uint8, len(X)*d)
	for i, r := range X {
		out[i] = flat[i*d : (i+1)*d]
		for j := 0; j < d; j++ {
			out[i][j] = b.bin(j, r[j])
		}
	}
	return out
}

// treeNode is one node of a binned decision tree stored in a flat arena.
// Leaves have left == -1; internal nodes send binRow[feature] <= splitBin
// left, the rest right.
type treeNode struct {
	feature  int
	splitBin uint8
	left     int
	right    int
	value    float64
}

// binTree is a decision tree over binned features. value at the leaves is
// P(class=1) for classification trees and an additive score for boosted
// regression trees.
type binTree struct {
	nodes []treeNode
}

func (t *binTree) predictRow(row []uint8) float64 {
	i := 0
	for t.nodes[i].left >= 0 {
		n := t.nodes[i]
		if row[n.feature] <= n.splitBin {
			i = n.left
		} else {
			i = n.right
		}
	}
	return t.nodes[i].value
}

// leafCount returns the number of leaves, used by tests.
func (t *binTree) leafCount() int {
	n := 0
	for _, nd := range t.nodes {
		if nd.left < 0 {
			n++
		}
	}
	return n
}

// classTreeConfig controls CART classification tree growth.
type classTreeConfig struct {
	maxDepth       int
	minSamplesLeaf int
	// mtry is the number of features sampled per node; 0 means all.
	mtry int
	// randomThresholds picks one random candidate split per feature
	// instead of scanning all bins — the Extremely Randomised Trees rule.
	randomThresholds bool
}

// rowBuffer holds the rows a tree is grown on, one contiguous range per
// node, and the scratch a split moves its right side through.
type rowBuffer struct {
	rows, scratch []int
}

func newRowBuffer(n int) rowBuffer {
	return rowBuffer{rows: make([]int, n), scratch: make([]int, n)}
}

// reset sets the rows to 0..n-1.
func (b *rowBuffer) reset() {
	for i := range b.rows {
		b.rows[i] = i
	}
}

// partition reorders rows[lo:hi] so that the rows whose feature j falls
// in a bin <= splitBin come first, and returns where the others begin.
// It is stable: each side keeps the order it had.
func (b *rowBuffer) partition(binned [][]uint8, lo, hi, j int, splitBin uint8) int {
	rows := b.rows[lo:hi]
	nl, nr := 0, 0
	for _, r := range rows {
		if binned[r][j] <= splitBin {
			rows[nl] = r
			nl++
		} else {
			b.scratch[nr] = r
			nr++
		}
	}
	copy(rows[nl:], b.scratch[:nr])
	return lo + nl
}

// buildClassTree grows a gini-impurity CART tree on the binned rows held
// in buf, each node over its own range of it.
func buildClassTree(binned [][]uint8, y []int, buf *rowBuffer, bn *binner, cfg classTreeConfig, rng *rand.Rand) *binTree {
	t := &binTree{}
	feats := make([]int, len(bn.cuts))
	var grow func(lo, hi, depth int) int
	grow = func(lo, hi, depth int) int {
		rows := buf.rows[lo:hi]
		n1 := 0
		for _, r := range rows {
			n1 += y[r]
		}
		node := treeNode{left: -1, right: -1, value: float64(n1) / float64(len(rows))}
		id := len(t.nodes)
		t.nodes = append(t.nodes, node)
		if depth >= cfg.maxDepth || len(rows) < 2*cfg.minSamplesLeaf || n1 == 0 || n1 == len(rows) {
			return id
		}
		feat, splitBin, ok := bestGiniSplit(binned, y, rows, bn, cfg, rng, feats)
		if !ok {
			return id
		}
		mid := buf.partition(binned, lo, hi, feat, splitBin)
		if mid-lo < cfg.minSamplesLeaf || hi-mid < cfg.minSamplesLeaf {
			return id
		}
		l := grow(lo, mid, depth+1)
		r := grow(mid, hi, depth+1)
		t.nodes[id].feature = feat
		t.nodes[id].splitBin = splitBin
		t.nodes[id].left = l
		t.nodes[id].right = r
		return id
	}
	grow(0, len(buf.rows), 0)
	return t
}

// bestGiniSplit scans (feature, bin) candidates and returns the split with
// the lowest weighted gini impurity. feats, of one entry per feature, is
// the buffer the node's feature sample is drawn into.
func bestGiniSplit(binned [][]uint8, y []int, rows []int, bn *binner, cfg classTreeConfig, rng *rand.Rand, feats []int) (feat int, splitBin uint8, ok bool) {
	feats = sampleFeatures(feats, cfg.mtry, rng)
	total := len(rows)
	total1 := 0
	for _, r := range rows {
		total1 += y[r]
	}
	bestScore := giniImpurity(total, total1) // must improve on parent
	var hist0, hist1 [64]int
	for _, j := range feats {
		nb := bn.numBins(j)
		for b := 0; b < nb; b++ {
			hist0[b], hist1[b] = 0, 0
		}
		for _, r := range rows {
			b := binned[r][j]
			if y[r] == 1 {
				hist1[b]++
			} else {
				hist0[b]++
			}
		}
		if cfg.randomThresholds {
			// Extra-trees: a single random cut in [0, nb-2].
			b := uint8(rng.Intn(nb - 1))
			if score, valid := splitScore(hist0[:nb], hist1[:nb], int(b), total, total1); valid && score < bestScore {
				bestScore, feat, splitBin, ok = score, j, b, true
			}
			continue
		}
		for b := 0; b < nb-1; b++ {
			if score, valid := splitScore(hist0[:nb], hist1[:nb], b, total, total1); valid && score < bestScore {
				bestScore, feat, splitBin, ok = score, j, uint8(b), true
			}
		}
	}
	return feat, splitBin, ok
}

// splitScore computes the weighted gini of splitting after bin b.
func splitScore(hist0, hist1 []int, b, total, total1 int) (float64, bool) {
	ln, l1 := 0, 0
	for i := 0; i <= b; i++ {
		ln += hist0[i] + hist1[i]
		l1 += hist1[i]
	}
	rn := total - ln
	r1 := total1 - l1
	if ln == 0 || rn == 0 {
		return 0, false
	}
	w := float64(ln)/float64(total)*giniImpurity(ln, l1) +
		float64(rn)/float64(total)*giniImpurity(rn, r1)
	return w, true
}

func giniImpurity(n, n1 int) float64 {
	if n == 0 {
		return 0
	}
	p := float64(n1) / float64(n)
	return 2 * p * (1 - p)
}

// sampleFeatures resets all to the feature indices 0..d−1, d = len(all),
// and returns mtry distinct ones of them (all when mtry<=0 or >= d), in
// random order when sampled. The reset makes every draw shuffle the same
// input, so reusing all changes no drawn feature.
func sampleFeatures(all []int, mtry int, rng *rand.Rand) []int {
	d := len(all)
	for i := range all {
		all[i] = i
	}
	if mtry <= 0 || mtry >= d || rng == nil {
		return all
	}
	rng.Shuffle(d, func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:mtry]
}
