package ml

import (
	"container/heap"
	"math"
	"math/rand"
)

// GBDT is a gradient-boosted decision tree classifier with logistic loss.
// Two growth strategies mirror the paper's boosted models: leaf-wise
// best-first growth (the LightGBM signature) and depth-wise growth with L2
// leaf regularisation (the XGBoost signature).
type GBDT struct {
	name         string
	nRounds      int
	learningRate float64
	maxLeaves    int // leaf-wise budget (leafWise only)
	maxDepth     int
	minChild     int     // minimum rows per leaf
	lambda       float64 // L2 regularisation on leaf values
	leafWise     bool
	seed         int64

	bn       *binner
	trees    []*binTree
	baseline float64 // initial log-odds
}

// NewLightGBM returns the leaf-wise boosted model (100 rounds, 31 leaves,
// learning rate 0.1) approximating LightGBM defaults.
func NewLightGBM(seed int64) *GBDT {
	return &GBDT{
		name: "lightgbm", nRounds: 100, learningRate: 0.1,
		maxLeaves: 31, maxDepth: 16, minChild: 5, lambda: 1, leafWise: true, seed: seed,
	}
}

// NewXGBoost returns the depth-wise boosted model (100 rounds, depth 6,
// learning rate 0.1, L2 = 1) approximating XGBoost defaults.
func NewXGBoost(seed int64) *GBDT {
	return &GBDT{
		name: "xgboost", nRounds: 100, learningRate: 0.1,
		maxDepth: 6, minChild: 5, lambda: 1, seed: seed,
	}
}

// Name implements Classifier.
func (g *GBDT) Name() string { return g.name }

// Fit implements Classifier.
func (g *GBDT) Fit(X [][]float64, y []int) error {
	if _, err := checkXY(X, y); err != nil {
		return err
	}
	g.bn = fitBinner(X, defaultMaxBins)
	binned := g.bn.transform(X)
	n := len(X)

	// Initial prediction: log-odds of the positive rate.
	pos := 0
	for _, v := range y {
		pos += v
	}
	p0 := (float64(pos) + 0.5) / (float64(n) + 1)
	g.baseline = logit(p0)

	scores := make([]float64, n)
	for i := range scores {
		scores[i] = g.baseline
	}
	grad := make([]float64, n)
	hess := make([]float64, n)
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	rng := rand.New(rand.NewSource(g.seed))
	g.trees = g.trees[:0]
	for round := 0; round < g.nRounds; round++ {
		for i := 0; i < n; i++ {
			p := sigmoid(scores[i])
			grad[i] = p - float64(y[i])
			hess[i] = p * (1 - p)
		}
		t := g.buildRegTree(binned, grad, hess, rows, rng)
		g.trees = append(g.trees, t)
		for i, row := range binned {
			scores[i] += g.learningRate * t.predictRow(row)
		}
	}
	return nil
}

// PredictProba implements Classifier.
func (g *GBDT) PredictProba(X [][]float64) []float64 {
	out := make([]float64, len(X))
	if g.bn == nil {
		return out
	}
	binned := g.bn.transform(X)
	for i, row := range binned {
		s := g.baseline
		for _, t := range g.trees {
			s += g.learningRate * t.predictRow(row)
		}
		out[i] = sigmoid(s)
	}
	return out
}

// Predict implements Classifier.
func (g *GBDT) Predict(X [][]float64) []int { return hardLabels(g.PredictProba(X)) }

func logit(p float64) float64 {
	if p <= 0 {
		p = 1e-9
	}
	if p >= 1 {
		p = 1 - 1e-9
	}
	return math.Log(p / (1 - p))
}

// regSplit describes the best split found for a leaf.
type regSplit struct {
	gain     float64
	feature  int
	splitBin uint8
	lrows    []int
	rrows    []int
}

// buildRegTree grows one regression tree on gradient/hessian targets.
func (g *GBDT) buildRegTree(binned [][]uint8, grad, hess []float64, rows []int, rng *rand.Rand) *binTree {
	t := &binTree{}
	if g.leafWise {
		g.growLeafWise(t, binned, grad, hess, rows)
	} else {
		g.growDepthWise(t, binned, grad, hess, rows, 0)
	}
	return t
}

// growDepthWise is classic recursive expansion to maxDepth.
func (g *GBDT) growDepthWise(t *binTree, binned [][]uint8, grad, hess []float64, rows []int, depth int) int {
	id := len(t.nodes)
	t.nodes = append(t.nodes, treeNode{left: -1, right: -1, value: g.leafValue(grad, hess, rows)})
	if depth >= g.maxDepth || len(rows) < 2*g.minChild {
		return id
	}
	sp, ok := g.bestRegSplit(binned, grad, hess, rows)
	if !ok {
		return id
	}
	l := g.growDepthWise(t, binned, grad, hess, sp.lrows, depth+1)
	r := g.growDepthWise(t, binned, grad, hess, sp.rrows, depth+1)
	t.nodes[id].feature = sp.feature
	t.nodes[id].splitBin = sp.splitBin
	t.nodes[id].left = l
	t.nodes[id].right = r
	return id
}

// leafCandidate is a grown-but-splittable leaf in the best-first queue.
type leafCandidate struct {
	nodeID int
	depth  int
	split  regSplit
}

// leafHeap is a max-heap on split gain.
type leafHeap []leafCandidate

func (h leafHeap) Len() int           { return len(h) }
func (h leafHeap) Less(i, j int) bool { return h[i].split.gain > h[j].split.gain }
func (h leafHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *leafHeap) Push(x any)        { *h = append(*h, x.(leafCandidate)) }
func (h *leafHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// growLeafWise expands the highest-gain leaf first until the maxLeaves
// budget is exhausted — LightGBM's signature growth order.
func (g *GBDT) growLeafWise(t *binTree, binned [][]uint8, grad, hess []float64, rows []int) {
	t.nodes = append(t.nodes, treeNode{left: -1, right: -1, value: g.leafValue(grad, hess, rows)})
	h := &leafHeap{}
	if sp, ok := g.bestRegSplit(binned, grad, hess, rows); ok {
		heap.Push(h, leafCandidate{nodeID: 0, depth: 0, split: sp})
	}
	leaves := 1
	for h.Len() > 0 && leaves < g.maxLeaves {
		c := heap.Pop(h).(leafCandidate)
		sp := c.split
		l := len(t.nodes)
		t.nodes = append(t.nodes, treeNode{left: -1, right: -1, value: g.leafValue(grad, hess, sp.lrows)})
		r := len(t.nodes)
		t.nodes = append(t.nodes, treeNode{left: -1, right: -1, value: g.leafValue(grad, hess, sp.rrows)})
		t.nodes[c.nodeID].feature = sp.feature
		t.nodes[c.nodeID].splitBin = sp.splitBin
		t.nodes[c.nodeID].left = l
		t.nodes[c.nodeID].right = r
		leaves++ // one leaf became two
		if c.depth+1 < g.maxDepth {
			if lsp, ok := g.bestRegSplit(binned, grad, hess, sp.lrows); ok {
				heap.Push(h, leafCandidate{nodeID: l, depth: c.depth + 1, split: lsp})
			}
			if rsp, ok := g.bestRegSplit(binned, grad, hess, sp.rrows); ok {
				heap.Push(h, leafCandidate{nodeID: r, depth: c.depth + 1, split: rsp})
			}
		}
	}
}

// leafValue is the Newton step -G/(H+λ).
func (g *GBDT) leafValue(grad, hess []float64, rows []int) float64 {
	var gs, hs float64
	for _, r := range rows {
		gs += grad[r]
		hs += hess[r]
	}
	return -gs / (hs + g.lambda)
}

// bestRegSplit scans all (feature, bin) candidates for the split with the
// highest regularised gain.
func (g *GBDT) bestRegSplit(binned [][]uint8, grad, hess []float64, rows []int) (regSplit, bool) {
	if len(rows) < 2*g.minChild {
		return regSplit{}, false
	}
	d := len(g.bn.cuts)
	var tg, th float64
	for _, r := range rows {
		tg += grad[r]
		th += hess[r]
	}
	parent := tg * tg / (th + g.lambda)
	var best regSplit
	found := false
	var gsum, hsum [64]float64
	var cnt [64]int
	for j := 0; j < d; j++ {
		nb := g.bn.numBins(j)
		for b := 0; b < nb; b++ {
			gsum[b], hsum[b], cnt[b] = 0, 0, 0
		}
		for _, r := range rows {
			b := binned[r][j]
			gsum[b] += grad[r]
			hsum[b] += hess[r]
			cnt[b]++
		}
		var lg, lh float64
		ln := 0
		for b := 0; b < nb-1; b++ {
			lg += gsum[b]
			lh += hsum[b]
			ln += cnt[b]
			rn := len(rows) - ln
			if ln < g.minChild || rn < g.minChild {
				continue
			}
			rg, rh := tg-lg, th-lh
			gain := lg*lg/(lh+g.lambda) + rg*rg/(rh+g.lambda) - parent
			if gain > 1e-12 && (!found || gain > best.gain) {
				best = regSplit{gain: gain, feature: j, splitBin: uint8(b)}
				found = true
			}
		}
	}
	if !found {
		return regSplit{}, false
	}
	for _, r := range rows {
		if binned[r][best.feature] <= best.splitBin {
			best.lrows = append(best.lrows, r)
		} else {
			best.rrows = append(best.rrows, r)
		}
	}
	return best, true
}
