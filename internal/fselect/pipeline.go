package fselect

import (
	"context"
	"log/slog"
	"sync"

	"autofeat/internal/stats"
	"autofeat/internal/telemetry"
)

// Pipeline is the streaming feature-selection pipeline of Section VI: each
// batch of candidate features (the columns added by one join) first passes
// relevance analysis — rank by the relevance metric and keep the top-κ with
// positive scores — and the survivors then pass redundancy analysis against
// the features selected so far. Either stage may be disabled (nil) for the
// Figure 9 ablation.
type Pipeline struct {
	// Relevance ranks candidates against the label; nil skips the stage
	// (all candidates proceed with zero relevance scores).
	Relevance Relevance
	// Redundancy filters relevant candidates against the selected set;
	// nil skips the stage (all relevant candidates are kept).
	Redundancy Redundancy
	// K caps how many candidates survive relevance analysis (the paper's
	// κ, default 15 in the evaluation). K < 0 means unlimited.
	K int
	// Telemetry, when non-nil, records spans and duration histograms for
	// the relevance and redundancy halves of every batch.
	Telemetry *telemetry.Collector
	// Log, when non-nil, receives a Debug record per batch (candidate and
	// survivor counts for both stages). Nil — the default — disables
	// logging.
	Log *slog.Logger
}

// Result reports one pipeline run over a candidate batch.
type Result struct {
	// Kept holds indices into the candidate batch that survived both
	// stages, ascending.
	Kept []int
	// RelScores aligns with Kept: the relevance score of each kept
	// feature (zero when the relevance stage is disabled).
	RelScores []float64
	// RedScores aligns with Kept: the redundancy J score of each kept
	// feature (zero when the redundancy stage is disabled).
	RedScores []float64
	// Codes aligns with Kept: the Discretize codes of each kept feature,
	// for the caller to carry into the selected set of later batches
	// (nil when the redundancy stage is disabled).
	Codes [][]int
	// Cancelled reports that the batch was abandoned at a stage boundary
	// because the RunContext context was cancelled; Kept is empty and the
	// caller should treat the batch as unevaluated, not as "no features".
	Cancelled bool
}

// Run pushes one batch of candidate columns through the pipeline with no
// cancellation; it is RunContext under context.Background().
func (p *Pipeline) Run(candidates [][]float64, selected [][]int, y []int) Result {
	return p.RunContext(context.Background(), candidates, selected, y)
}

// RunContext pushes one batch of candidate columns through the pipeline.
// selected holds the Discretize codes of the columns already in the
// selected feature set R_sel; y is the label. Candidates are column-major
// []float64 with NaN nulls, and only those that pass relevance are binned.
// ctx is checked at the stage boundaries (before relevance and before
// redundancy): a cancelled context short-circuits to an empty, cancelled
// result so the surrounding search can degrade gracefully instead of
// finishing the batch.
func (p *Pipeline) RunContext(ctx context.Context, candidates [][]float64, selected [][]int, y []int) Result {
	if len(candidates) == 0 {
		return Result{}
	}
	if ctx != nil && ctx.Err() != nil {
		return Result{Cancelled: true}
	}

	// Stage 1: relevance analysis, keep top-κ (Algorithm 1, line 16).
	_, relSpan := p.Telemetry.Trace().StartSpan(ctx, telemetry.SpanRelevance)
	relIdx := make([]int, len(candidates))
	relScores := make([]float64, len(candidates))
	if p.Relevance != nil {
		scores := p.Relevance.Scores(candidates, y)
		relIdx, relScores = SelectKBest(scores, p.K)
	} else {
		for i := range relIdx {
			relIdx[i] = i
		}
		if p.K >= 0 && len(relIdx) > p.K {
			relIdx = relIdx[:p.K]
			relScores = relScores[:p.K]
		}
	}
	relSpan.SetInt("candidates", len(candidates))
	relSpan.SetInt("kept", len(relIdx))
	relSpan.End()
	if len(relIdx) == 0 {
		return Result{}
	}

	// Stage 2: redundancy analysis against R_sel (Algorithm 1, line 17).
	if p.Redundancy == nil {
		return Result{Kept: relIdx, RelScores: relScores, RedScores: make([]float64, len(relIdx))}
	}
	if ctx != nil && ctx.Err() != nil {
		return Result{Cancelled: true}
	}
	_, redSpan := p.Telemetry.Trace().StartSpan(ctx, telemetry.SpanRedundancy)
	sc := binScratch.Get().(*codeScratch)
	defer binScratch.Put(sc)
	relCodes := sc.bin(candidates, relIdx)
	accepted, redScores := p.Redundancy.Select(relCodes, selected, y)
	redSpan.SetInt("candidates", len(relIdx))
	redSpan.SetInt("kept", len(accepted))
	redSpan.SetInt("selected_set", len(selected))
	redSpan.End()
	kept := make([]int, len(accepted))
	keptRel := make([]float64, len(accepted))
	// The kept codes leave the scratch for one array of their own.
	n := 0
	for _, a := range accepted {
		n += len(relCodes[a])
	}
	store := make([]int, 0, n)
	codes := make([][]int, len(accepted))
	for j, a := range accepted {
		kept[j] = relIdx[a]
		keptRel[j] = relScores[a]
		start := len(store)
		store = append(store, relCodes[a]...)
		codes[j] = store[start:len(store):len(store)]
	}
	if p.Log != nil {
		p.Log.Debug("feature selection batch",
			"candidates", len(candidates), "relevant", len(relIdx),
			"kept", len(kept), "selected_set", len(selected))
	}
	return Result{Kept: kept, RelScores: keptRel, RedScores: redScores, Codes: codes}
}

// codeScratch holds the codes of one batch's relevant candidates. Most
// candidates are rejected, so their codes are binned into a buffer that
// the next batch reuses, and only the kept ones are copied out.
type codeScratch struct {
	buf  []int
	cols [][]int
}

// binScratch lends each redundancy stage its own codeScratch. The buffers
// hold no results between batches, and no two goroutines ever hold the
// same one.
var binScratch = sync.Pool{New: func() any { return new(codeScratch) }}

// bin returns the Discretize codes of candidates[i] for each i in idx, in
// order, written into the scratch buffer.
func (sc *codeScratch) bin(candidates [][]float64, idx []int) [][]int {
	sc.buf = sc.buf[:0]
	for _, i := range idx {
		sc.buf = stats.AppendDiscretize(sc.buf, candidates[i], stats.DefaultBins)
	}
	sc.cols = sc.cols[:0]
	off := 0
	for _, i := range idx {
		end := off + len(candidates[i])
		sc.cols = append(sc.cols, sc.buf[off:end:end])
		off = end
	}
	return sc.cols
}
