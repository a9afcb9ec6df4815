// Package fselect implements the feature-selection machinery of Sections V
// and VI: five relevance metrics (Information Gain, Symmetrical
// Uncertainty, Pearson, Spearman, Relief), five redundancy metrics from
// the unified conditional-likelihood-maximisation framework (MIFS, MRMR,
// CIFE, JMI, CMIM), the select-κ-best heuristic and the streaming
// feature-selection pipeline AutoFeat builds on.
//
// Features are passed column-major as []float64 with NaN nulls; labels are
// integer class codes, which every MI-based metric first maps to class ids
// 0..k−1. Entropy-based relevance metrics discretise continuous columns
// with stats.Discretize; redundancy metrics take the codes of Discretize,
// so a caller bins each selected column once.
package fselect

import (
	"math"
	"math/rand"
	"sort"
	"sync"

	"autofeat/internal/stats"
)

// Relevance scores each feature column against the label; higher is more
// relevant. Implementations must return one non-negative score per column.
type Relevance interface {
	// Name identifies the metric in reports ("spearman", "ig", ...).
	Name() string
	// Scores returns a relevance score per column in cols.
	Scores(cols [][]float64, y []int) []float64
}

// SpearmanRelevance ranks features by |Spearman rank correlation| with the
// label — the metric AutoFeat adopts (Section V-C: best accuracy/runtime
// trade-off).
type SpearmanRelevance struct{}

// Name implements Relevance.
func (SpearmanRelevance) Name() string { return "spearman" }

// Scores implements Relevance. Columns with nulls are ranked over the
// pairwise-complete rows only (scipy semantics): ranking before NaN
// deletion would correlate a column's pre-deletion ranks against label
// ranks computed over all rows. Null-free columns reuse the label ranks
// computed once for the whole batch.
func (SpearmanRelevance) Scores(cols [][]float64, y []int) []float64 {
	sc := spearmanScratch.Get().(*rankScratch)
	defer spearmanScratch.Put(sc)
	sc.yf = sc.yf[:0]
	for _, v := range y {
		sc.yf = append(sc.yf, float64(v))
	}
	sc.yr = append(sc.yr[:0], sc.r.Ranks(sc.yf)...)
	out := make([]float64, len(cols))
	for i, c := range cols {
		if hasNaN(c) {
			out[i] = math.Abs(sc.r.Spearman(c, sc.yf))
		} else {
			out[i] = math.Abs(stats.Pearson(sc.r.Ranks(c), sc.yr))
		}
	}
	return out
}

// rankScratch is the buffers one SpearmanRelevance.Scores call ranks in:
// the label as floats, its ranks, and a Ranker for the columns.
type rankScratch struct {
	r      stats.Ranker
	yf, yr []float64
}

// spearmanScratch lends each Scores call its own rankScratch, so batches
// stop allocating a rank buffer per column. The buffers hold no results
// between calls, and no two goroutines ever hold the same one.
var spearmanScratch = sync.Pool{New: func() any { return new(rankScratch) }}

func hasNaN(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) {
			return true
		}
	}
	return false
}

// PearsonRelevance ranks features by |Pearson correlation| with the label.
type PearsonRelevance struct{}

// Name implements Relevance.
func (PearsonRelevance) Name() string { return "pearson" }

// Scores implements Relevance.
func (PearsonRelevance) Scores(cols [][]float64, y []int) []float64 {
	yf := labelFloats(y)
	out := make([]float64, len(cols))
	for i, c := range cols {
		out[i] = math.Abs(stats.Pearson(c, yf))
	}
	return out
}

// IGRelevance ranks features by information gain I(X;Y) after
// discretisation.
type IGRelevance struct {
	// Bins overrides the discretisation granularity; 0 means
	// stats.DefaultBins.
	Bins int
}

// Name implements Relevance.
func (IGRelevance) Name() string { return "ig" }

// Scores implements Relevance.
func (m IGRelevance) Scores(cols [][]float64, y []int) []float64 {
	y = classIDs(y)
	out := make([]float64, len(cols))
	for i, c := range cols {
		out[i] = stats.InformationGain(stats.Discretize(c, bins(m.Bins)), y)
	}
	return out
}

// SURelevance ranks features by symmetrical uncertainty SU(X,Y), the
// normalised variant of information gain.
type SURelevance struct {
	// Bins overrides the discretisation granularity; 0 means
	// stats.DefaultBins.
	Bins int
}

// Name implements Relevance.
func (SURelevance) Name() string { return "su" }

// Scores implements Relevance.
func (m SURelevance) Scores(cols [][]float64, y []int) []float64 {
	y = classIDs(y)
	out := make([]float64, len(cols))
	for i, c := range cols {
		out[i] = stats.SymmetricUncertainty(stats.Discretize(c, bins(m.Bins)), y)
	}
	return out
}

// ReliefRelevance ranks features with the Relief nearest-hit/nearest-miss
// weighting. Sampled instances and the rng seed are fixed for determinism.
type ReliefRelevance struct {
	// Samples is the number of Relief iterations m; 0 means min(100, n).
	Samples int
	// Seed drives instance sampling.
	Seed int64
}

// Name implements Relevance.
func (ReliefRelevance) Name() string { return "relief" }

// Scores implements Relevance.
func (m ReliefRelevance) Scores(cols [][]float64, y []int) []float64 {
	if len(cols) == 0 {
		return nil
	}
	n := len(cols[0])
	rows := make([][]float64, n)
	flat := make([]float64, n*len(cols))
	for i := 0; i < n; i++ {
		rows[i] = flat[i*len(cols) : (i+1)*len(cols)]
		for j := range cols {
			rows[i][j] = cols[j][i]
		}
	}
	samples := m.Samples
	if samples <= 0 {
		samples = 100
		if n < samples {
			samples = n
		}
	}
	w := stats.ReliefScores(rows, y, samples, rand.New(rand.NewSource(m.Seed)))
	// Relief weights can be negative; clamp so Scores stays non-negative
	// and negative-weight (irrelevant) features rank at zero.
	for i, v := range w {
		if v < 0 {
			w[i] = 0
		}
	}
	return w
}

func bins(b int) int {
	if b <= 0 {
		return stats.DefaultBins
	}
	return b
}

func labelFloats(y []int) []float64 {
	out := make([]float64, len(y))
	for i, v := range y {
		out[i] = float64(v)
	}
	return out
}

// RelevanceByName returns the metric registered under name, or nil. Names:
// spearman, pearson, ig, su, relief.
func RelevanceByName(name string) Relevance {
	switch name {
	case "spearman":
		return SpearmanRelevance{}
	case "pearson":
		return PearsonRelevance{}
	case "ig":
		return IGRelevance{}
	case "su":
		return SURelevance{}
	case "relief":
		return ReliefRelevance{}
	default:
		return nil
	}
}

// AllRelevance lists the five Section V-C relevance metrics in paper order.
func AllRelevance() []Relevance {
	return []Relevance{IGRelevance{}, SURelevance{}, PearsonRelevance{}, SpearmanRelevance{}, ReliefRelevance{}}
}

// SelectKBest implements the paper's "select κ best" heuristic: sort
// features by score descending and keep the top κ with strictly positive
// scores. It returns the kept column indices (ascending) and their scores
// (aligned with the returned indices).
func SelectKBest(scores []float64, k int) ([]int, []float64) {
	type is struct {
		i int
		s float64
	}
	order := make([]is, 0, len(scores))
	for i, s := range scores {
		if s > 0 && !math.IsNaN(s) {
			order = append(order, is{i, s})
		}
	}
	sort.Slice(order, func(a, b int) bool {
		if order[a].s != order[b].s {
			return order[a].s > order[b].s
		}
		return order[a].i < order[b].i
	})
	if k >= 0 && len(order) > k {
		order = order[:k]
	}
	sort.Slice(order, func(a, b int) bool { return order[a].i < order[b].i })
	idx := make([]int, len(order))
	sc := make([]float64, len(order))
	for j, o := range order {
		idx[j] = o.i
		sc[j] = o.s
	}
	return idx, sc
}
