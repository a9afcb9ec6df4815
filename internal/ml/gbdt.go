package ml

import (
	"math"
	"slices"
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
	gr := &regGrower{
		g:      g,
		binned: g.bn.transform(X),
		grad:   make([]float64, n),
		hess:   make([]float64, n),
		buf:    newRowBuffer(n),
	}
	g.trees = g.trees[:0]
	for round := 0; round < g.nRounds; round++ {
		for i := 0; i < n; i++ {
			p := sigmoid(scores[i])
			gr.grad[i] = p - float64(y[i])
			gr.hess[i] = p * (1 - p)
		}
		t := gr.grow()
		g.trees = append(g.trees, t)
		// Every training row lies in exactly one leaf's range, the leaf
		// predictRow would walk it to, so each row gets the same add.
		for id, nd := range t.nodes {
			if nd.left >= 0 {
				continue
			}
			leaf := gr.nodes[id]
			for _, r := range gr.buf.rows[leaf.lo:leaf.hi] {
				scores[r] += g.learningRate * nd.value
			}
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
}

// regGrower grows the regression trees of one fit over one row buffer.
// Node id owns buf.rows[nodes[id].lo:nodes[id].hi]. A split partitions
// its node's range stably, so every range stays ascending, and each
// node's sums and histograms add the same rows in the same order as
// when every node kept a row list of its own.
type regGrower struct {
	g          *GBDT
	binned     [][]uint8
	grad, hess []float64
	buf        rowBuffer
	// The tree being grown, its nodes' rows and sums by node id, and
	// its split candidates; all three are reused from tree to tree.
	tree  []treeNode
	nodes []regNode
	heap  leafHeap
}

// regNode is what a fit keeps of a node beside the tree: the range of
// the row buffer it owns, and its gradient and hessian sums, which feed
// both its value and its split search.
type regNode struct {
	lo, hi int
	gs, hs float64
}

// grow grows one regression tree on the current gradient/hessian targets.
func (gr *regGrower) grow() *binTree {
	gr.buf.reset()
	gr.tree, gr.nodes = gr.tree[:0], gr.nodes[:0]
	if gr.g.leafWise {
		gr.growLeafWise()
	} else {
		gr.growDepthWise(0, len(gr.buf.rows), 0)
	}
	return &binTree{nodes: slices.Clone(gr.tree)}
}

// addLeaf appends a leaf owning rows[lo:hi], valued at the Newton step
// -G/(H+λ), and returns its id.
func (gr *regGrower) addLeaf(lo, hi int) int {
	var gs, hs float64
	for _, r := range gr.buf.rows[lo:hi] {
		gs += gr.grad[r]
		hs += gr.hess[r]
	}
	gr.nodes = append(gr.nodes, regNode{lo: lo, hi: hi, gs: gs, hs: hs})
	gr.tree = append(gr.tree, treeNode{left: -1, right: -1, value: -gs / (hs + gr.g.lambda)})
	return len(gr.tree) - 1
}

// growDepthWise is classic recursive expansion to maxDepth.
func (gr *regGrower) growDepthWise(lo, hi, depth int) int {
	id := gr.addLeaf(lo, hi)
	if depth >= gr.g.maxDepth {
		return id
	}
	sp, ok := gr.bestRegSplit(id)
	if !ok {
		return id
	}
	mid := gr.buf.partition(gr.binned, lo, hi, sp.feature, sp.splitBin)
	l := gr.growDepthWise(lo, mid, depth+1)
	r := gr.growDepthWise(mid, hi, depth+1)
	gr.tree[id].feature = sp.feature
	gr.tree[id].splitBin = sp.splitBin
	gr.tree[id].left = l
	gr.tree[id].right = r
	return id
}

// leafCandidate is a grown-but-splittable leaf in the best-first queue.
type leafCandidate struct {
	nodeID int
	depth  int
	split  regSplit
}

// leafHeap is a max-heap on split gain. push and pop move candidates
// exactly as container/heap's Push and Pop do, so equal gains pop in
// the same order, but keep them unboxed.
type leafHeap []leafCandidate

func (h *leafHeap) push(c leafCandidate) {
	*h = append(*h, c)
	s := *h
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2
		if !(s[j].split.gain > s[i].split.gain) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *leafHeap) pop() leafCandidate {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].split.gain > s[j].split.gain {
			j = j2
		}
		if !(s[j].split.gain > s[i].split.gain) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
	return s[n]
}

// growLeafWise expands the highest-gain leaf first until the maxLeaves
// budget is exhausted — LightGBM's signature growth order. A candidate's
// rows are partitioned when it is popped, so the leaves left queued are
// never partitioned.
func (gr *regGrower) growLeafWise() {
	g := gr.g
	gr.addLeaf(0, len(gr.buf.rows))
	gr.heap = gr.heap[:0]
	gr.push(0, 0)
	leaves := 1
	for len(gr.heap) > 0 && leaves < g.maxLeaves {
		c := gr.heap.pop()
		sp, p := c.split, gr.nodes[c.nodeID]
		mid := gr.buf.partition(gr.binned, p.lo, p.hi, sp.feature, sp.splitBin)
		l := gr.addLeaf(p.lo, mid)
		r := gr.addLeaf(mid, p.hi)
		gr.tree[c.nodeID].feature = sp.feature
		gr.tree[c.nodeID].splitBin = sp.splitBin
		gr.tree[c.nodeID].left = l
		gr.tree[c.nodeID].right = r
		leaves++ // one leaf became two
		// The children of the pop that fills the budget are never popped.
		if leaves < g.maxLeaves && c.depth+1 < g.maxDepth {
			gr.push(l, c.depth+1)
			gr.push(r, c.depth+1)
		}
	}
}

// push queues leaf id when it has a split.
func (gr *regGrower) push(id, depth int) {
	if sp, ok := gr.bestRegSplit(id); ok {
		gr.heap.push(leafCandidate{nodeID: id, depth: depth, split: sp})
	}
}

// bestRegSplit scans all (feature, bin) candidates of leaf id for the
// split with the highest regularised gain.
func (gr *regGrower) bestRegSplit(id int) (regSplit, bool) {
	g, nd := gr.g, gr.nodes[id]
	n := nd.hi - nd.lo
	if n < 2*g.minChild {
		return regSplit{}, false
	}
	rows := gr.buf.rows[nd.lo:nd.hi]
	tg, th := nd.gs, nd.hs
	parent := tg * tg / (th + g.lambda)
	var best regSplit
	found := false
	var gsum, hsum [64]float64
	var cnt [64]int
	for j := 0; j < len(g.bn.cuts); j++ {
		nb := g.bn.numBins(j)
		for b := 0; b < nb; b++ {
			gsum[b], hsum[b], cnt[b] = 0, 0, 0
		}
		for _, r := range rows {
			b := gr.binned[r][j]
			gsum[b] += gr.grad[r]
			hsum[b] += gr.hess[r]
			cnt[b]++
		}
		var lg, lh float64
		ln := 0
		for b := 0; b < nb-1; b++ {
			if cnt[b] == 0 {
				// The sums, so the gain, of the bin before: the strict >
				// below cannot take it.
				continue
			}
			lg += gsum[b]
			lh += hsum[b]
			ln += cnt[b]
			rn := n - ln
			if rn < g.minChild {
				break // rn only falls from here on
			}
			if ln < g.minChild {
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
	return best, found
}
