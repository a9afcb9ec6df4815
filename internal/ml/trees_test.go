package ml

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
)

// refFitModel fits a tree model with the reference code of
// reference_test.go.
func refFitModel(c Classifier, X [][]float64, y []int) error {
	switch m := c.(type) {
	case *GBDT:
		return m.refFit(X, y)
	case *Forest:
		return m.refFit(X, y)
	}
	panic("ml: " + c.Name() + " is not a tree model")
}

func treesOf(c Classifier) []*binTree {
	switch m := c.(type) {
	case *GBDT:
		return m.trees
	case *Forest:
		return m.trees
	}
	return nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameNode(a, b treeNode) bool {
	return a.feature == b.feature && a.splitBin == b.splitBin && a.left == b.left && a.right == b.right && sameBits(a.value, b.value)
}

// checkTrees fits every tree model and its reference on (X, y) with the
// given seed. Both must return the same error or grow the same trees,
// node for node, and predict the same bits on X and on probe.
func checkTrees(t *testing.T, X [][]float64, y []int, probe [][]float64, seed int64) {
	t.Helper()
	for _, f := range TreeFactories() {
		got, want := f.New(seed), f.New(seed)
		err, refErr := got.Fit(X, y), refFitModel(want, X, y)
		if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("%s on %d rows: Fit error %v, reference %v", f.Name, len(X), err, refErr)
		}
		if err != nil {
			continue
		}
		gt, wt := treesOf(got), treesOf(want)
		if len(gt) != len(wt) {
			t.Fatalf("%s on %d rows: %d trees, reference %d", f.Name, len(X), len(gt), len(wt))
		}
		for i := range gt {
			if len(gt[i].nodes) != len(wt[i].nodes) {
				t.Fatalf("%s on %d rows: tree %d has %d nodes, reference %d", f.Name, len(X), i, len(gt[i].nodes), len(wt[i].nodes))
			}
			for k := range gt[i].nodes {
				if !sameNode(gt[i].nodes[k], wt[i].nodes[k]) {
					t.Fatalf("%s on %d rows: tree %d node %d is %+v, reference %+v", f.Name, len(X), i, k, gt[i].nodes[k], wt[i].nodes[k])
				}
			}
		}
		for _, M := range [][][]float64{X, probe} {
			p, q := got.PredictProba(M), want.PredictProba(M)
			for i := range q {
				if !sameBits(p[i], q[i]) {
					t.Fatalf("%s on %d rows: PredictProba row %d = %v, reference %v", f.Name, len(X), i, p[i], q[i])
				}
			}
		}
	}
}

// treeInput draws a matrix of the shapes that stress split search and
// partitioning: NaN-heavy, constant, low-cardinality and continuous
// columns, ±Inf and huge cells, duplicate rows, and labels that follow
// the first feature with noise.
func treeInput(rng *rand.Rand, n, d int) ([][]float64, []int) {
	kinds := make([]int, d)
	for j := range kinds {
		kinds[j] = rng.Intn(5)
	}
	cell := func(j int) float64 {
		switch kinds[j] {
		case 0: // continuous
			return rng.NormFloat64()
		case 1: // NaN-heavy
			if rng.Intn(10) < 7 {
				return math.NaN()
			}
			return rng.NormFloat64()
		case 2: // constant
			return 3
		case 3: // low cardinality
			return float64(rng.Intn(3))
		default: // ±Inf, NaN and magnitudes far apart
			switch rng.Intn(6) {
			case 0:
				return math.Inf(1)
			case 1:
				return math.Inf(-1)
			case 2:
				return math.NaN()
			}
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(600)-300))
		}
	}
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		if i > 0 && rng.Intn(4) == 0 {
			X[i] = append([]float64(nil), X[rng.Intn(i)]...) // duplicate row
		} else {
			X[i] = make([]float64, d)
			for j := range X[i] {
				X[i][j] = cell(j)
			}
		}
		if X[i][0] > 0 != (rng.Intn(5) == 0) {
			y[i] = 1
		}
	}
	return X, y
}

// TestTreesMatchReference is the differential test of the tree learners
// against the per-node row lists they grew trees with before, over a
// seed sweep of matrices: every tree node and every PredictProba bit,
// on the training rows and on unseen rows. Every fifth matrix has fewer
// rows than 2·minChild or just above it; every seventh has one class.
func TestTreesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for it := 0; it < 60; it++ {
		n, d := 1+rng.Intn(160), 1+rng.Intn(7)
		if it%5 == 0 {
			n = 1 + rng.Intn(12)
		}
		X, y := treeInput(rng, n, d)
		if it%7 == 0 {
			for i := range y {
				y[i] = it % 2
			}
		}
		probe, _ := treeInput(rng, 40, d)
		checkTrees(t, X, y, probe, int64(it))
	}
}

// TestLeafHeapMatchesContainerHeap drives leafHeap and the reference's
// container/heap queue through the same pushes and pops, with gains
// drawn from a few values so that ties abound. Equal gains must pop in
// the same order, since the order decides which leaf splits first.
func TestLeafHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for it := 0; it < 200; it++ {
		var h leafHeap
		ref := &refLeafHeap{}
		for op := 0; op < 100; op++ {
			if rng.Intn(3) > 0 || len(h) == 0 {
				gain := float64(rng.Intn(4))
				h.push(leafCandidate{nodeID: op, split: regSplit{gain: gain}})
				heap.Push(ref, refLeafCandidate{nodeID: op, split: refRegSplit{gain: gain}})
				continue
			}
			got, want := h.pop(), heap.Pop(ref).(refLeafCandidate)
			if got.nodeID != want.nodeID {
				t.Fatalf("run %d op %d: popped node %d (gain %v), container/heap pops %d (gain %v)", it, op, got.nodeID, got.split.gain, want.nodeID, want.split.gain)
			}
		}
	}
}

// treeCells are the cells decodeTreeInput draws from: NaN, ±Inf, ±0,
// repeated values and magnitudes far apart.
var treeCells = [...]float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1, 1, 2, 2, 2, -3.5, 7, 1e300, -1e-300, 0.5, 42}

// decodeTreeInput turns fuzz bytes into a matrix of at most 64 rows and
// 6 features with 0/1 labels. The first byte sets the feature count;
// then each row takes one byte per feature and one for its label. A
// feature byte below 0x80 picks a treeCells entry, any other one of 128
// quarter steps in [-32, 31.5].
func decodeTreeInput(data []byte) ([][]float64, []int) {
	if len(data) == 0 {
		return nil, nil
	}
	d := 1 + int(data[0])%6
	var X [][]float64
	var y []int
	for body := data[1:]; len(body) > d && len(X) < 64; body = body[d+1:] {
		row := make([]float64, d)
		for j, b := range body[:d] {
			if b < 0x80 {
				row[j] = treeCells[b&15]
			} else {
				row[j] = float64(int8(b<<1)) / 4
			}
		}
		X = append(X, row)
		y = append(y, int(body[d]&1))
	}
	return X, y
}

// FuzzTrees holds every tree model to its reference (see checkTrees) on
// decoded matrices: a fit either succeeds or returns the reference's
// error, without a panic, and predicts the reference's bits on the
// training rows and on one row of each treeCells entry.
func FuzzTrees(f *testing.F) {
	f.Add([]byte{}, int64(0))
	f.Add([]byte{0, 1, 0, 2, 1, 3, 0, 4, 1, 5, 0, 6, 1, 7, 0, 8, 1, 9, 0, 10, 1, 11, 0, 12, 1}, int64(1))
	f.Add([]byte{5, 0, 1, 2, 3, 4, 5, 1, 0x80, 0x90, 0xa0, 0xb0, 0xc0, 0xd0, 0, 6, 7, 8, 9, 10, 11, 1}, int64(2))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		X, y := decodeTreeInput(data)
		var probe [][]float64
		if len(X) > 0 {
			for _, v := range treeCells {
				row := make([]float64, len(X[0]))
				for j := range row {
					row[j] = v
				}
				probe = append(probe, row)
			}
		}
		checkTrees(t, X, y, probe, seed)
	})
}
