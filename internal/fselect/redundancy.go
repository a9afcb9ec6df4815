package fselect

import (
	"slices"

	"autofeat/internal/stats"
)

// Redundancy filters candidate features against an already-selected set,
// keeping only those that add information. All five paper metrics derive
// from the unified conditional-likelihood-maximisation framework
// (Definition V.1, Equation (1)):
//
//	J(Xk) = I(Xk;Y) − β·Σ_{Xj∈S} I(Xj;Xk) + λ·Σ_{Xj∈S} I(Xj;Xk|Y)
//
// A candidate is accepted when J(Xk) > 0 — its relevance to the label
// outweighs its redundancy with the selected set — and accepted candidates
// immediately join S, making the evaluation a greedy streaming pass.
// Features arrive as the bin codes of Discretize, so a caller that keeps
// the codes of its selected set bins each column once.
type Redundancy interface {
	// Name identifies the metric ("mrmr", "jmi", ...).
	Name() string
	// Select evaluates the codes of candidate columns against the codes
	// of the selected set and returns the indices of accepted candidates
	// together with their J scores, in candidate order. It does not
	// modify selected, and keeps no candidate after it returns: the
	// pipeline reuses their storage for the next batch.
	Select(candidates, selected [][]int, y []int) ([]int, []float64)
}

// Discretize bins every column with stats.Discretize at
// stats.DefaultBins, giving the codes Redundancy compares.
func Discretize(cols [][]float64) [][]int {
	out := make([][]int, len(cols))
	for i, c := range cols {
		out[i] = stats.Discretize(c, stats.DefaultBins)
	}
	return out
}

// CLM is a conditional-likelihood-maximisation redundancy metric
// parameterised by the β and λ schedules of Equation (1). β and λ receive
// |S|, the current size of the selected set, because MRMR and JMI scale
// their penalty by 1/|S|.
type CLM struct {
	MetricName string
	Beta       func(sizeS int) float64
	Lambda     func(sizeS int) float64
}

// Name implements Redundancy.
func (m CLM) Name() string { return m.MetricName }

// Select implements Redundancy via greedy Equation-(1) scoring.
func (m CLM) Select(candidates, selected [][]int, y []int) ([]int, []float64) {
	y = classIDs(y)
	// The full slice expression makes the first accept copy, so the
	// caller's selected set never sees this batch's candidates.
	sel := selected[:len(selected):len(selected)]
	var accepted []int
	var scores []float64
	for ci, xk := range candidates {
		j := stats.CorrectedMutualInformation(xk, y)
		if len(sel) > 0 {
			beta := m.Beta(len(sel))
			lambda := m.Lambda(len(sel))
			// With β ≥ 0 and λ ≤ 0 every term left can only lower J, as
			// both estimates are non-negative, so a J ≤ 0 stays ≤ 0 and
			// the candidate is rejected. Its J is never read.
			falling := beta >= 0 && lambda <= 0
			for _, xj := range sel {
				if falling && j <= 0 {
					break
				}
				if beta != 0 {
					j -= beta * stats.CorrectedMutualInformation(xj, xk)
				}
				if lambda != 0 {
					j += lambda * stats.CorrectedConditionalMutualInformation(xj, xk, y)
				}
			}
		}
		if j > 0 {
			accepted = append(accepted, ci)
			scores = append(scores, j)
			sel = append(sel, xk)
		}
	}
	return accepted, scores
}

// CMIM implements Conditional Mutual Information Maximization, the special
// case of the framework (Equation (2)):
//
//	J(Xk) = I(Xk;Y) − max_{Xj∈S} [ I(Xj;Xk) − I(Xj;Xk|Y) ]
type CMIM struct{}

// Name implements Redundancy.
func (CMIM) Name() string { return "cmim" }

// Select implements Redundancy.
func (CMIM) Select(candidates, selected [][]int, y []int) ([]int, []float64) {
	y = classIDs(y)
	sel := selected[:len(selected):len(selected)]
	var accepted []int
	var scores []float64
	for ci, xk := range candidates {
		j := stats.CorrectedMutualInformation(xk, y)
		maxPenalty := 0.0
		for _, xj := range sel {
			// A penalty of at least I(Xk;Y) rejects the candidate, and
			// the maximum only grows.
			if maxPenalty >= j {
				break
			}
			p := stats.CorrectedMutualInformation(xj, xk) - stats.CorrectedConditionalMutualInformation(xj, xk, y)
			if p > maxPenalty {
				maxPenalty = p
			}
		}
		j -= maxPenalty
		if j > 0 {
			accepted = append(accepted, ci)
			scores = append(scores, j)
			sel = append(sel, xk)
		}
	}
	return accepted, scores
}

// classIDs maps labels to class ids 0..k−1 in ascending label order, the
// form every MI-based metric is handed the label in. The estimators read
// negative codes as missing, so a −1/+1 label would otherwise lose all of
// its −1 rows. Labels that already are class ids, such as 0/1, come back
// as they are.
func classIDs(y []int) []int {
	lo, hi := 0, -1
	for i, v := range y {
		if i == 0 || v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo == 0 && hi < len(y) {
		seen := make([]bool, hi+1)
		k := 0
		for _, v := range y {
			if !seen[v] {
				seen[v] = true
				k++
			}
		}
		if k == hi+1 {
			return y
		}
	}
	classes := slices.Clone(y)
	slices.Sort(classes)
	classes = slices.Compact(classes)
	out := make([]int, len(y))
	for i, v := range y {
		out[i], _ = slices.BinarySearch(classes, v)
	}
	return out
}

// NewMIFS returns Mutual Information Feature Selection: β = 0.5
// (the paper's choice), λ = 0.
func NewMIFS() Redundancy {
	return CLM{
		MetricName: "mifs",
		Beta:       func(int) float64 { return 0.5 },
		Lambda:     func(int) float64 { return 0 },
	}
}

// NewMRMR returns Minimum Redundancy Maximum Relevance: β = 1/|S|, λ = 0.
// MRMR is the redundancy metric AutoFeat adopts (Section V-D).
func NewMRMR() Redundancy {
	return CLM{
		MetricName: "mrmr",
		Beta:       func(s int) float64 { return 1 / float64(s) },
		Lambda:     func(int) float64 { return 0 },
	}
}

// NewCIFE returns Conditional Infomax Feature Extraction: β = 1, λ = 1.
func NewCIFE() Redundancy {
	return CLM{
		MetricName: "cife",
		Beta:       func(int) float64 { return 1 },
		Lambda:     func(int) float64 { return 1 },
	}
}

// NewJMI returns Joint Mutual Information: β = 1/|S|, λ = 1/|S|.
func NewJMI() Redundancy {
	return CLM{
		MetricName: "jmi",
		Beta:       func(s int) float64 { return 1 / float64(s) },
		Lambda:     func(s int) float64 { return 1 / float64(s) },
	}
}

// NewCMIM returns Conditional Mutual Information Maximization (Eq. (2)).
func NewCMIM() Redundancy { return CMIM{} }

// RedundancyByName returns the metric registered under name, or nil.
// Names: mifs, mrmr, cife, jmi, cmim.
func RedundancyByName(name string) Redundancy {
	switch name {
	case "mifs":
		return NewMIFS()
	case "mrmr":
		return NewMRMR()
	case "cife":
		return NewCIFE()
	case "jmi":
		return NewJMI()
	case "cmim":
		return NewCMIM()
	default:
		return nil
	}
}

// AllRedundancy lists the five Section V-D redundancy metrics in paper
// order.
func AllRedundancy() []Redundancy {
	return []Redundancy{NewMIFS(), NewMRMR(), NewCIFE(), NewJMI(), NewCMIM()}
}
