package fselect

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"autofeat/internal/stats"
)

// synthCols builds a small dataset with one strongly relevant feature, one
// redundant copy of it, and one noise feature.
func synthCols(n int, seed int64) (cols [][]float64, names []string, y []int) {
	rng := rand.New(rand.NewSource(seed))
	relevant := make([]float64, n)
	redundant := make([]float64, n)
	noise := make([]float64, n)
	y = make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		y[i] = cls
		relevant[i] = float64(cls)*4 + rng.NormFloat64()*0.5
		redundant[i] = relevant[i]*2 + 1 // monotone transform: same info
		noise[i] = rng.NormFloat64()
	}
	return [][]float64{relevant, redundant, noise}, []string{"relevant", "redundant", "noise"}, y
}

func TestRelevanceMetricsRankRelevantFirst(t *testing.T) {
	cols, _, y := synthCols(400, 3)
	for _, m := range AllRelevance() {
		scores := m.Scores(cols, y)
		if len(scores) != 3 {
			t.Fatalf("%s: %d scores", m.Name(), len(scores))
		}
		if scores[0] <= scores[2] {
			t.Errorf("%s: relevant %.3f must outscore noise %.3f", m.Name(), scores[0], scores[2])
		}
		for i, s := range scores {
			if s < 0 || math.IsNaN(s) {
				t.Errorf("%s: score[%d] = %v must be non-negative", m.Name(), i, s)
			}
		}
	}
}

func TestRelevanceNames(t *testing.T) {
	want := []string{"ig", "su", "pearson", "spearman", "relief"}
	for i, m := range AllRelevance() {
		if m.Name() != want[i] {
			t.Errorf("metric %d name = %q, want %q", i, m.Name(), want[i])
		}
		if RelevanceByName(m.Name()) == nil {
			t.Errorf("RelevanceByName(%q) = nil", m.Name())
		}
	}
	if RelevanceByName("nope") != nil {
		t.Error("unknown name must return nil")
	}
}

func TestSpearmanRelevanceMonotoneEquivalence(t *testing.T) {
	cols, _, y := synthCols(300, 5)
	scores := SpearmanRelevance{}.Scores(cols, y)
	if math.Abs(scores[0]-scores[1]) > 1e-9 {
		t.Fatalf("monotone transform must not change spearman relevance: %v vs %v", scores[0], scores[1])
	}
}

func TestReliefRelevanceEmptyAndDeterministic(t *testing.T) {
	if got := (ReliefRelevance{}).Scores(nil, nil); got != nil {
		t.Fatal("no columns -> nil")
	}
	cols, _, y := synthCols(100, 7)
	a := ReliefRelevance{Seed: 42}.Scores(cols, y)
	b := ReliefRelevance{Seed: 42}.Scores(cols, y)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give same relief scores")
		}
	}
}

func TestSelectKBest(t *testing.T) {
	scores := []float64{0.9, 0, 0.5, math.NaN(), 0.7, -0.1}
	idx, sc := SelectKBest(scores, 2)
	if len(idx) != 2 || idx[0] != 0 || idx[1] != 4 {
		t.Fatalf("idx = %v, want [0 4]", idx)
	}
	if sc[0] != 0.9 || sc[1] != 0.7 {
		t.Fatalf("scores = %v", sc)
	}
	// k bigger than positives keeps all positives.
	idx2, _ := SelectKBest(scores, 10)
	if len(idx2) != 3 {
		t.Fatalf("idx2 = %v, want 3 positive entries", idx2)
	}
	// k < 0 means unlimited.
	idx3, _ := SelectKBest(scores, -1)
	if len(idx3) != 3 {
		t.Fatalf("unlimited must keep all positives: %v", idx3)
	}
	// zero and NaN and negative never selected
	for _, i := range idx2 {
		if i == 1 || i == 3 || i == 5 {
			t.Fatal("non-positive scores must never be selected")
		}
	}
}

func TestSelectKBestTieBreak(t *testing.T) {
	idx, _ := SelectKBest([]float64{0.5, 0.5, 0.5}, 2)
	if len(idx) != 2 || idx[0] != 0 || idx[1] != 1 {
		t.Fatalf("ties must break by index: %v", idx)
	}
}

func TestRedundancyRejectsDuplicate(t *testing.T) {
	cols, _, y := synthCols(400, 11)
	relevant, redundant := cols[0], cols[1]
	for _, m := range AllRedundancy() {
		// With relevant already selected, its duplicate must be rejected.
		accepted, scores := m.Select(Discretize([][]float64{redundant}), Discretize([][]float64{relevant}), y)
		if len(accepted) != 0 {
			t.Errorf("%s: duplicate feature accepted with scores %v", m.Name(), scores)
		}
	}
}

func TestRedundancyAcceptsFreshRelevant(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 400
	y := make([]int, n)
	a := make([]float64, n) // relevant dimension 1
	b := make([]float64, n) // complementary relevant dimension
	for i := 0; i < n; i++ {
		y[i] = i % 2
		a[i] = float64(y[i])*3 + rng.NormFloat64()
		b[i] = float64(y[i])*3 - rng.NormFloat64()*2 + rng.Float64()
	}
	for _, m := range AllRedundancy() {
		accepted, scores := m.Select(Discretize([][]float64{b}), Discretize([][]float64{a}), y)
		if len(accepted) != 1 {
			t.Errorf("%s: fresh informative feature rejected", m.Name())
			continue
		}
		if scores[0] <= 0 {
			t.Errorf("%s: accepted score must be positive, got %v", m.Name(), scores[0])
		}
	}
}

func TestRedundancyEmptySelectedAcceptsInformative(t *testing.T) {
	cols, _, y := synthCols(200, 17)
	for _, m := range AllRedundancy() {
		accepted, _ := m.Select(Discretize([][]float64{cols[0]}), nil, y)
		if len(accepted) != 1 {
			t.Errorf("%s: with empty S, an informative feature must pass", m.Name())
		}
	}
}

func TestRedundancyRejectsPureNoiseCMIMStyle(t *testing.T) {
	// Pure noise has I(Xk;Y) ≈ 0 but discretisation noise can make it
	// slightly positive; verify noise scores well below informative.
	cols, _, y := synthCols(500, 19)
	m := NewMRMR()
	accInfo, sInfo := m.Select(Discretize([][]float64{cols[0]}), nil, y)
	_, sNoise := m.Select(Discretize([][]float64{cols[2]}), nil, y)
	if len(accInfo) != 1 {
		t.Fatal("informative must pass")
	}
	if len(sNoise) == 1 && sNoise[0] > sInfo[0]/3 {
		t.Fatalf("noise score %v too close to informative %v", sNoise[0], sInfo[0])
	}
}

func TestRedundancyNames(t *testing.T) {
	want := []string{"mifs", "mrmr", "cife", "jmi", "cmim"}
	for i, m := range AllRedundancy() {
		if m.Name() != want[i] {
			t.Errorf("metric %d name = %q, want %q", i, m.Name(), want[i])
		}
		if RedundancyByName(m.Name()) == nil {
			t.Errorf("RedundancyByName(%q) = nil", m.Name())
		}
	}
	if RedundancyByName("nope") != nil {
		t.Error("unknown name must return nil")
	}
}

func TestCLMGreedyUpdatesSelectedSet(t *testing.T) {
	// Submit the same informative feature twice in one batch: the first
	// must be accepted, the second rejected as redundant with the first.
	cols, _, y := synthCols(400, 23)
	dup := make([]float64, len(cols[0]))
	copy(dup, cols[0])
	accepted, _ := NewMRMR().Select(Discretize([][]float64{cols[0], dup}), nil, y)
	if len(accepted) != 1 || accepted[0] != 0 {
		t.Fatalf("greedy pass must reject in-batch duplicate: %v", accepted)
	}
	acceptedC, _ := NewCMIM().Select(Discretize([][]float64{cols[0], dup}), nil, y)
	if len(acceptedC) != 1 {
		t.Fatalf("cmim greedy pass must reject in-batch duplicate: %v", acceptedC)
	}
}

func TestPipelineFull(t *testing.T) {
	cols, _, y := synthCols(400, 29)
	p := &Pipeline{Relevance: SpearmanRelevance{}, Redundancy: NewMRMR(), K: 15}
	res := p.Run(cols, nil, y)
	if len(res.Kept) == 0 {
		t.Fatal("pipeline must keep the relevant feature")
	}
	has := func(i int) bool {
		for _, k := range res.Kept {
			if k == i {
				return true
			}
		}
		return false
	}
	if !has(0) {
		t.Fatalf("relevant feature dropped: kept %v", res.Kept)
	}
	if has(0) && has(1) {
		t.Fatalf("redundant duplicate survived: kept %v", res.Kept)
	}
	if len(res.RelScores) != len(res.Kept) || len(res.RedScores) != len(res.Kept) {
		t.Fatal("score slices must align with Kept")
	}
	for _, s := range res.RedScores {
		if s <= 0 {
			t.Fatal("kept features must have positive J score")
		}
	}
}

func TestPipelineKCap(t *testing.T) {
	cols, _, y := synthCols(200, 31)
	p := &Pipeline{Relevance: SpearmanRelevance{}, K: 1}
	res := p.Run(cols, nil, y)
	if len(res.Kept) != 1 || res.Kept[0] != 0 && res.Kept[0] != 1 {
		t.Fatalf("K=1 must keep exactly the single best: %v", res.Kept)
	}
}

func TestPipelineStagesDisabled(t *testing.T) {
	cols, _, y := synthCols(200, 37)
	// No stages: everything passes (bounded by K).
	p := &Pipeline{K: -1}
	res := p.Run(cols, nil, y)
	if len(res.Kept) != 3 {
		t.Fatalf("no-op pipeline must keep all: %v", res.Kept)
	}
	// Relevance disabled, K caps the passthrough.
	p2 := &Pipeline{K: 2}
	res2 := p2.Run(cols, nil, y)
	if len(res2.Kept) != 2 {
		t.Fatalf("K cap without relevance: %v", res2.Kept)
	}
	// Redundancy-only.
	p3 := &Pipeline{Redundancy: NewMRMR(), K: -1}
	res3 := p3.Run(cols, nil, y)
	for _, k := range res3.Kept {
		if k == 1 && contains(res3.Kept, 0) {
			t.Fatal("redundancy-only must still reject the duplicate")
		}
	}
	// Empty batch.
	if got := p.Run(nil, nil, y); len(got.Kept) != 0 {
		t.Fatal("empty batch keeps nothing")
	}
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func TestPipelineAllIrrelevant(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n := 300
	y := make([]int, n)
	noise1 := make([]float64, n)
	noise2 := make([]float64, n)
	for i := range y {
		y[i] = rng.Intn(2)
		noise1[i] = rng.NormFloat64()
		noise2[i] = rng.NormFloat64()
	}
	p := &Pipeline{Relevance: SpearmanRelevance{}, Redundancy: NewMRMR(), K: 15}
	res := p.Run([][]float64{noise1, noise2}, nil, y)
	// Spearman of pure noise is near 0 but rarely exactly 0; redundancy's
	// MI threshold usually rejects. Accept either empty or tiny scores.
	for i := range res.Kept {
		if res.RelScores[i] > 0.2 {
			t.Fatalf("noise feature with high relevance score %v", res.RelScores[i])
		}
	}
}

func TestSpearmanRelevanceNulledColumn(t *testing.T) {
	// A column with nulls must be ranked over the pairwise-complete rows
	// only. The old path ranked the full column (NaN ranks included) against
	// label ranks computed over every row, which skews the score whenever
	// deletion changes the tie structure.
	y := []int{2, 0, 0, 1, 2, 2}
	nulled := []float64{math.NaN(), 1, 2, 3, 4, 5}
	clean := []float64{5, 1, 2, 3, 4, 5}
	got := SpearmanRelevance{}.Scores([][]float64{nulled, clean}, y)
	want := 3 / math.Sqrt(10)
	if math.Abs(got[0]-want) > 1e-12 {
		t.Fatalf("nulled column score = %v, want %v (pairwise-complete rows)", got[0], want)
	}
	// The null-free fast path must agree with the full Spearman computation.
	yf := labelFloats(y)
	if w := math.Abs(stats.Spearman(clean, yf)); math.Abs(got[1]-w) > 1e-12 {
		t.Fatalf("clean column fast path = %v, want %v", got[1], w)
	}
}

func TestClassIDs(t *testing.T) {
	binary := []int{0, 1, 1, 0}
	if got := classIDs(binary); &got[0] != &binary[0] {
		t.Fatal("0/1 labels must come back as they are")
	}
	for _, c := range []struct{ in, want []int }{
		{[]int{-1, 1, 1, -1}, []int{0, 1, 1, 0}},
		{[]int{5, 2, 9, 2}, []int{1, 0, 2, 0}},
		{[]int{0, 2, 2}, []int{0, 1, 1}},
		{[]int{1, 1}, []int{0, 0}},
		{nil, nil},
	} {
		if got := classIDs(c.in); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("classIDs(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestMIMetricsTreatNegativeLabelsAsClasses checks every MI-based metric
// on a feature equal to 3·class: with −1/+1 labels it must score the same
// bits as with 0/1 labels. The estimators read negative codes as missing,
// so without the class-id mapping every −1 row was dropped and MRMR
// rejected the feature outright.
func TestMIMetricsTreatNegativeLabelsAsClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 300
	y01, ypm := make([]int, n), make([]int, n)
	feat, noise := make([]float64, n), make([]float64, n)
	for i := range y01 {
		y01[i] = rng.Intn(2)
		ypm[i] = 2*y01[i] - 1
		feat[i] = 3 * float64(y01[i])
		noise[i] = rng.NormFloat64()
	}
	cols := [][]float64{feat, noise}
	codes := Discretize(cols)
	for _, m := range AllRedundancy() {
		acc01, s01 := m.Select(codes, nil, y01)
		accPM, sPM := m.Select(codes, nil, ypm)
		if len(acc01) == 0 || acc01[0] != 0 {
			t.Fatalf("%s: 3·class must be accepted with 0/1 labels: %v", m.Name(), acc01)
		}
		if fmt.Sprint(acc01) != fmt.Sprint(accPM) || !sameBits(s01, sPM) {
			t.Errorf("%s: 0/1 labels accept %v %v, −1/+1 labels %v %v", m.Name(), acc01, s01, accPM, sPM)
		}
	}
	for _, m := range []Relevance{IGRelevance{}, SURelevance{}, SpearmanRelevance{}} {
		if a, b := m.Scores(cols, y01), m.Scores(cols, ypm); !sameBits(a, b) {
			t.Errorf("%s: 0/1 labels score %v, −1/+1 labels %v", m.Name(), a, b)
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSpearmanRelevanceConcurrent scores batches of different lengths on
// many goroutines at once. Each call borrows its own rank buffers, so
// every score must match a sequential run (and -race must stay quiet).
func TestSpearmanRelevanceConcurrent(t *testing.T) {
	type batch struct {
		cols [][]float64
		y    []int
		want []float64
	}
	var batches []batch
	for i := 0; i < 8; i++ {
		cols, _, y := synthCols(50+40*i, int64(60+i))
		cols[2][i] = math.NaN()
		batches = append(batches, batch{cols: cols, y: y, want: SpearmanRelevance{}.Scores(cols, y)})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				b := batches[(g+r)%len(batches)]
				if got := (SpearmanRelevance{}).Scores(b.cols, b.y); !sameBits(got, b.want) {
					t.Errorf("goroutine %d: scores %v, want %v", g, got, b.want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPipelineCodesSurviveLaterBatches checks that the codes a batch
// returns are the Discretize codes of its kept candidates, and stay so
// while later batches, on this goroutine and on others at once, bin
// their candidates into the reused scratch buffers.
func TestPipelineCodesSurviveLaterBatches(t *testing.T) {
	p := &Pipeline{Relevance: SpearmanRelevance{}, Redundancy: NewMRMR(), K: 15}
	type batch struct {
		cols [][]float64
		y    []int
		res  Result
	}
	var batches []batch
	for i := 0; i < 8; i++ {
		cols, _, y := synthCols(60+30*i, int64(80+i))
		batches = append(batches, batch{cols: cols, y: y, res: p.Run(cols, nil, y)})
	}
	same := func(a, b Result) bool {
		if !slices.Equal(a.Kept, b.Kept) || !sameBits(a.RelScores, b.RelScores) ||
			!sameBits(a.RedScores, b.RedScores) || len(a.Codes) != len(b.Codes) {
			return false
		}
		for j := range a.Codes {
			if !slices.Equal(a.Codes[j], b.Codes[j]) {
				return false
			}
		}
		return true
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				b := batches[(g+r)%len(batches)]
				if got := p.Run(b.cols, nil, b.y); !same(got, b.res) {
					t.Errorf("goroutine %d: result %+v, want %+v", g, got, b.res)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for i, b := range batches {
		if len(b.res.Kept) == 0 {
			t.Fatalf("batch %d kept nothing", i)
		}
		for j, k := range b.res.Kept {
			if want := stats.Discretize(b.cols[k], stats.DefaultBins); !slices.Equal(b.res.Codes[j], want) {
				t.Fatalf("batch %d: codes of kept column %d changed after later batches", i, k)
			}
		}
	}
}
