package ml

import (
	"container/heap"
	"math"
	"math/rand"
)

// The code below is the boosted-tree fit, its split search and growth,
// buildClassTree and the forest fit as the package shipped them before
// trees were grown over one row buffer, and bestGiniSplit and
// sampleFeatures as they were before a tree drew every node's feature
// sample into one buffer, kept verbatim (only renamed) as the references
// that TestTreesMatchReference and FuzzTrees hold the learners to, bit
// for bit.

// refFit is the reference GBDT.Fit.
func (g *GBDT) refFit(X [][]float64, y []int) error {
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
		t := g.refBuildRegTree(binned, grad, hess, rows, rng)
		g.trees = append(g.trees, t)
		for i, row := range binned {
			scores[i] += g.learningRate * t.predictRow(row)
		}
	}
	return nil
}

// refRegSplit describes the best split found for a leaf.
type refRegSplit struct {
	gain     float64
	feature  int
	splitBin uint8
	lrows    []int
	rrows    []int
}

// refBuildRegTree grows one regression tree on gradient/hessian targets.
func (g *GBDT) refBuildRegTree(binned [][]uint8, grad, hess []float64, rows []int, rng *rand.Rand) *binTree {
	t := &binTree{}
	if g.leafWise {
		g.refGrowLeafWise(t, binned, grad, hess, rows)
	} else {
		g.refGrowDepthWise(t, binned, grad, hess, rows, 0)
	}
	return t
}

// refGrowDepthWise is classic recursive expansion to maxDepth.
func (g *GBDT) refGrowDepthWise(t *binTree, binned [][]uint8, grad, hess []float64, rows []int, depth int) int {
	id := len(t.nodes)
	t.nodes = append(t.nodes, treeNode{left: -1, right: -1, value: g.refLeafValue(grad, hess, rows)})
	if depth >= g.maxDepth || len(rows) < 2*g.minChild {
		return id
	}
	sp, ok := g.refBestRegSplit(binned, grad, hess, rows)
	if !ok {
		return id
	}
	l := g.refGrowDepthWise(t, binned, grad, hess, sp.lrows, depth+1)
	r := g.refGrowDepthWise(t, binned, grad, hess, sp.rrows, depth+1)
	t.nodes[id].feature = sp.feature
	t.nodes[id].splitBin = sp.splitBin
	t.nodes[id].left = l
	t.nodes[id].right = r
	return id
}

// refLeafCandidate is a grown-but-splittable leaf in the best-first queue.
type refLeafCandidate struct {
	nodeID int
	depth  int
	split  refRegSplit
}

// refLeafHeap is a max-heap on split gain.
type refLeafHeap []refLeafCandidate

func (h refLeafHeap) Len() int           { return len(h) }
func (h refLeafHeap) Less(i, j int) bool { return h[i].split.gain > h[j].split.gain }
func (h refLeafHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refLeafHeap) Push(x any)        { *h = append(*h, x.(refLeafCandidate)) }
func (h *refLeafHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// refGrowLeafWise expands the highest-gain leaf first until the maxLeaves
// budget is exhausted — LightGBM's signature growth order.
func (g *GBDT) refGrowLeafWise(t *binTree, binned [][]uint8, grad, hess []float64, rows []int) {
	t.nodes = append(t.nodes, treeNode{left: -1, right: -1, value: g.refLeafValue(grad, hess, rows)})
	h := &refLeafHeap{}
	if sp, ok := g.refBestRegSplit(binned, grad, hess, rows); ok {
		heap.Push(h, refLeafCandidate{nodeID: 0, depth: 0, split: sp})
	}
	leaves := 1
	for h.Len() > 0 && leaves < g.maxLeaves {
		c := heap.Pop(h).(refLeafCandidate)
		sp := c.split
		l := len(t.nodes)
		t.nodes = append(t.nodes, treeNode{left: -1, right: -1, value: g.refLeafValue(grad, hess, sp.lrows)})
		r := len(t.nodes)
		t.nodes = append(t.nodes, treeNode{left: -1, right: -1, value: g.refLeafValue(grad, hess, sp.rrows)})
		t.nodes[c.nodeID].feature = sp.feature
		t.nodes[c.nodeID].splitBin = sp.splitBin
		t.nodes[c.nodeID].left = l
		t.nodes[c.nodeID].right = r
		leaves++ // one leaf became two
		if c.depth+1 < g.maxDepth {
			if lsp, ok := g.refBestRegSplit(binned, grad, hess, sp.lrows); ok {
				heap.Push(h, refLeafCandidate{nodeID: l, depth: c.depth + 1, split: lsp})
			}
			if rsp, ok := g.refBestRegSplit(binned, grad, hess, sp.rrows); ok {
				heap.Push(h, refLeafCandidate{nodeID: r, depth: c.depth + 1, split: rsp})
			}
		}
	}
}

// refLeafValue is the Newton step -G/(H+λ).
func (g *GBDT) refLeafValue(grad, hess []float64, rows []int) float64 {
	var gs, hs float64
	for _, r := range rows {
		gs += grad[r]
		hs += hess[r]
	}
	return -gs / (hs + g.lambda)
}

// refBestRegSplit scans all (feature, bin) candidates for the split with the
// highest regularised gain.
func (g *GBDT) refBestRegSplit(binned [][]uint8, grad, hess []float64, rows []int) (refRegSplit, bool) {
	if len(rows) < 2*g.minChild {
		return refRegSplit{}, false
	}
	d := len(g.bn.cuts)
	var tg, th float64
	for _, r := range rows {
		tg += grad[r]
		th += hess[r]
	}
	parent := tg * tg / (th + g.lambda)
	var best refRegSplit
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
				best = refRegSplit{gain: gain, feature: j, splitBin: uint8(b)}
				found = true
			}
		}
	}
	if !found {
		return refRegSplit{}, false
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

// refFit is the reference Forest.Fit.
func (f *Forest) refFit(X [][]float64, y []int) error {
	d, err := checkXY(X, y)
	if err != nil {
		return err
	}
	f.bn = fitBinner(X, defaultMaxBins)
	binned := f.bn.transform(X)
	rng := rand.New(rand.NewSource(f.seed))
	mtry := int(math.Sqrt(float64(d)))
	if mtry < 1 {
		mtry = 1
	}
	cfg := classTreeConfig{
		maxDepth:         f.maxDepth,
		minSamplesLeaf:   f.minLeaf,
		mtry:             mtry,
		randomThresholds: f.extra,
	}
	f.trees = make([]*binTree, f.nTrees)
	n := len(X)
	for t := 0; t < f.nTrees; t++ {
		rows := make([]int, n)
		if f.bootstrap {
			for i := range rows {
				rows[i] = rng.Intn(n)
			}
		} else {
			for i := range rows {
				rows[i] = i
			}
		}
		f.trees[t] = refBuildClassTree(binned, y, rows, f.bn, cfg, rng)
	}
	return nil
}

// refBuildClassTree grows a gini-impurity CART tree on binned rows.
func refBuildClassTree(binned [][]uint8, y []int, rows []int, bn *binner, cfg classTreeConfig, rng *rand.Rand) *binTree {
	t := &binTree{}
	var grow func(rows []int, depth int) int
	grow = func(rows []int, depth int) int {
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
		feat, splitBin, ok := refBestGiniSplit(binned, y, rows, bn, cfg, rng)
		if !ok {
			return id
		}
		var lrows, rrows []int
		for _, r := range rows {
			if binned[r][feat] <= splitBin {
				lrows = append(lrows, r)
			} else {
				rrows = append(rrows, r)
			}
		}
		if len(lrows) < cfg.minSamplesLeaf || len(rrows) < cfg.minSamplesLeaf {
			return id
		}
		l := grow(lrows, depth+1)
		r := grow(rrows, depth+1)
		t.nodes[id].feature = feat
		t.nodes[id].splitBin = splitBin
		t.nodes[id].left = l
		t.nodes[id].right = r
		return id
	}
	grow(rows, 0)
	return t
}

// refBestGiniSplit scans (feature, bin) candidates and returns the split with
// the lowest weighted gini impurity.
func refBestGiniSplit(binned [][]uint8, y []int, rows []int, bn *binner, cfg classTreeConfig, rng *rand.Rand) (feat int, splitBin uint8, ok bool) {
	d := len(bn.cuts)
	feats := refSampleFeatures(d, cfg.mtry, rng)
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

// refSampleFeatures returns mtry distinct feature indices (all when mtry<=0 or
// >= d), in random order when sampled.
func refSampleFeatures(d, mtry int, rng *rand.Rand) []int {
	all := make([]int, d)
	for i := range all {
		all[i] = i
	}
	if mtry <= 0 || mtry >= d || rng == nil {
		return all
	}
	rng.Shuffle(d, func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:mtry]
}
