package frame

import (
	"fmt"
	"math/rand"
	"sort"
)

// Split holds the result of a train/test partition.
type Split struct {
	Train *Frame
	Test  *Frame
	// TrainIdx and TestIdx are the source row indices of each partition.
	TrainIdx []int
	TestIdx  []int
}

// StratifiedSplit partitions the frame into train/test with the given train
// fraction, preserving the per-class proportions of the label column
// (Section V-B uses an 80%-20% stratified split). The split is deterministic
// for a given rng seed.
func (f *Frame) StratifiedSplit(label string, trainFrac float64, rng *rand.Rand) (*Split, error) {
	if trainFrac <= 0 || trainFrac >= 1 {
		return nil, fmt.Errorf("frame: train fraction %v out of (0,1)", trainFrac)
	}
	y, err := f.Labels(label)
	if err != nil {
		return nil, err
	}
	byClass := make(map[int][]int)
	for i, c := range y {
		byClass[c] = append(byClass[c], i)
	}
	classes := make([]int, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	var trainIdx, testIdx []int
	for _, c := range classes {
		rows := byClass[c]
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		nTrain := int(float64(len(rows))*trainFrac + 0.5)
		if nTrain == 0 && len(rows) > 0 {
			nTrain = 1
		}
		if nTrain == len(rows) && len(rows) > 1 {
			nTrain--
		}
		trainIdx = append(trainIdx, rows[:nTrain]...)
		testIdx = append(testIdx, rows[nTrain:]...)
	}
	sort.Ints(trainIdx)
	sort.Ints(testIdx)
	return &Split{
		Train:    f.Take(trainIdx),
		Test:     f.Take(testIdx),
		TrainIdx: trainIdx,
		TestIdx:  testIdx,
	}, nil
}

// StratifiedSample returns at most n rows sampled without replacement while
// preserving the label distribution. AutoFeat samples the base table this
// way before feature selection to bound selection cost (Section VI); model
// training still sees the full data.
//
// The result is always a fresh frame (never the receiver) and never holds
// more than n rows: per-class rounding plus the one-row-per-class floor can
// overshoot, and the overshoot is trimmed largest-remainder style — the
// classes whose allocation most exceeds their exact proportional share give
// rows back first, dropping classes to zero only when there are more
// classes than n.
func (f *Frame) StratifiedSample(label string, n int, rng *rand.Rand) (*Frame, error) {
	total := f.NumRows()
	if n >= total {
		// Copy rather than alias the receiver, so callers may treat the
		// sample as an independent frame.
		idx := make([]int, total)
		for i := range idx {
			idx[i] = i
		}
		return f.Take(idx), nil
	}
	y, err := f.Labels(label)
	if err != nil {
		return nil, err
	}
	byClass := make(map[int][]int)
	for i, c := range y {
		byClass[c] = append(byClass[c], i)
	}
	classes := make([]int, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	frac := float64(n) / float64(total)
	type alloc struct {
		rows []int
		k    int
		// over is how far k exceeds the class's exact proportional share;
		// trimming removes from the largest overshoot first, which is the
		// largest-remainder rule applied in reverse.
		over float64
	}
	allocs := make([]alloc, 0, len(classes))
	picked := 0
	for _, c := range classes {
		rows := byClass[c]
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		exact := float64(len(rows)) * frac
		k := int(exact + 0.5)
		if k == 0 && len(rows) > 0 {
			k = 1
		}
		if k > len(rows) {
			k = len(rows)
		}
		allocs = append(allocs, alloc{rows: rows, k: k, over: float64(k) - exact})
		picked += k
	}
	// Trim the overshoot down to exactly n. First pass keeps every class
	// represented (only classes with k >= 2 give rows back); a second pass
	// drops classes entirely when there are more classes than n.
	for _, floor := range []int{2, 1} {
		for picked > n {
			best := -1
			for i := range allocs {
				if allocs[i].k < floor {
					continue
				}
				if best < 0 || allocs[i].over > allocs[best].over {
					best = i
				}
			}
			if best < 0 {
				break
			}
			allocs[best].k--
			allocs[best].over--
			picked--
		}
	}
	var pick []int
	for _, a := range allocs {
		pick = append(pick, a.rows[:a.k]...)
	}
	sort.Ints(pick)
	return f.Take(pick), nil
}
