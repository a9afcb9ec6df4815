package fselect

import "autofeat/internal/stats"

// The two methods below are CLM.Select and CMIM.Select as the package
// shipped them before they stopped scoring candidates already rejected,
// kept verbatim (only renamed) as the references that
// TestSelectMatchesReference and FuzzSelect hold the metrics to: the same
// accepted indices and the same score bits.

func (m CLM) refSelect(candidates, selected [][]int, y []int) ([]int, []float64) {
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
			for _, xj := range sel {
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

func (CMIM) refSelect(candidates, selected [][]int, y []int) ([]int, []float64) {
	y = classIDs(y)
	sel := selected[:len(selected):len(selected)]
	var accepted []int
	var scores []float64
	for ci, xk := range candidates {
		j := stats.CorrectedMutualInformation(xk, y)
		maxPenalty := 0.0
		for _, xj := range sel {
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
