package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"autofeat/internal/errs"
	"autofeat/internal/frame"
	"autofeat/internal/ml"
	"autofeat/internal/obsrv"
	"autofeat/internal/relational"
	"autofeat/internal/telemetry"
)

// PathEval records the ML evaluation of one ranked path.
type PathEval struct {
	Path RankedPath
	Eval ml.EvalResult
}

// AugmentResult is AutoFeat's end-to-end output: the best join path, the
// fully-materialised augmented table, the features it was trained with and
// the timing split the paper reports (feature-selection time vs total).
type AugmentResult struct {
	// Best is the winning path (highest model accuracy among the top-k).
	Best PathEval
	// Table is the augmented table materialised along the best path at
	// full size (no sampling).
	Table *frame.Frame
	// Features is the trained feature set: base features plus the best
	// path's selected features.
	Features []string
	// Evaluated lists the base table and every top-k path with its model
	// score, in candidate order. When evaluation stopped early it holds
	// the candidates before the first one that did not run.
	Evaluated []PathEval
	// Ranking is the discovery output the evaluation started from.
	Ranking *Ranking
	// SelectionTime is the feature-discovery wall-clock time;
	// TotalTime adds materialisation and model training on top.
	SelectionTime time.Duration
	TotalTime     time.Duration
	// Partial reports that discovery or evaluation stopped early
	// (cancellation, deadline or budget) and Best is the best of what
	// was reached, not of the full search space. The base table alone is
	// always evaluated, so Best is populated even on a fully cancelled
	// run. PartialReason carries the cause, as in Ranking.
	Partial       bool
	PartialReason string
}

// Augment runs the full AutoFeat pipeline with no external cancellation;
// it is exactly AugmentContext under context.Background(), which is the
// canonical (context-first) form.
func (d *Discovery) Augment(factory ml.Factory) (*AugmentResult, error) {
	return d.AugmentContext(context.Background(), factory)
}

// AugmentContext runs the full AutoFeat pipeline against the discovery's
// graph: discovery + ranking, then training the factory's model on each of
// the top-k paths at full table size, returning the best-accuracy path
// (Section VI, "From Ranked Paths to Training ML Models"). Cancellation
// degrades, it does not error: discovery returns its partial ranking and
// evaluation always scores at least the base table alone, so the result's
// Best is populated (and flagged Partial) even when ctx is already done.
func (d *Discovery) AugmentContext(ctx context.Context, factory ml.Factory) (*AugmentResult, error) {
	start := time.Now()
	ranking, err := d.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	res, err := d.EvaluateRankingContext(ctx, ranking, factory)
	if err != nil {
		return nil, err
	}
	res.TotalTime = time.Since(start)
	return res, nil
}

// EvaluateRanking trains the factory's model on the top-k ranked paths
// with no external cancellation; it is EvaluateRankingContext under
// context.Background().
func (d *Discovery) EvaluateRanking(ranking *Ranking, factory ml.Factory) (*AugmentResult, error) {
	return d.EvaluateRankingContext(context.Background(), ranking, factory)
}

// EvaluateRankingContext trains the factory's model on the top-k ranked
// paths of a previously computed ranking and picks the best. Exposed
// separately so harnesses can time discovery and evaluation independently
// and reuse one ranking across model families.
//
// The candidates — the base table alone, then the top-k paths — are
// independent (each seeds its own model and split from Config.Seed), so
// they train on the Config.Workers pool and are folded in candidate order
// with a strict >: the result is bit-identical at every worker count, and
// on a tie the earlier candidate wins. Each worker drops its joined table
// once its candidate has trained; the best path is materialised once more
// at the end, so at most Workers joined tables are alive at a time.
//
// The base-table candidate (index 0) is always evaluated, even under an
// already-cancelled context — AutoFeat's floor guarantee that augmentation
// never silently loses the un-augmented baseline. Every other candidate
// checks ctx before it starts. A cancellation flags the result Partial and
// keeps the evaluations before the first candidate that did not run, so
// Evaluated is always a prefix of the candidate order starting with the
// base table. A failing or panicking materialisation or model returns an
// error (the first in candidate order) instead of crashing the caller.
func (d *Discovery) EvaluateRankingContext(ctx context.Context, ranking *Ranking, factory ml.Factory) (*AugmentResult, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	res := &AugmentResult{Ranking: ranking, SelectionTime: ranking.SelectionTime}
	res.Partial, res.PartialReason = ranking.Partial, ranking.PartialReason

	// Candidate 0 is always the base table alone, so AutoFeat never
	// returns an augmentation that hurts the model.
	candidates := []RankedPath{{Quality: 1}}
	candidates = append(candidates, ranking.TopK(d.cfg.TopK)...)

	prog := d.cfg.Progress
	lg := d.cfg.log()
	outcomes := make([]candidateOutcome, len(candidates))
	runPool(len(candidates), d.cfg.workers(), func(i, _ int) bool {
		if i > 0 && ctx.Err() != nil {
			return false
		}
		outcomes[i] = d.evaluateCandidate(ctx, i, candidates[i], ranking, factory)
		return true
	})

	// Fold in candidate order: the first candidate that did not run ends
	// Evaluated, the first error wins, and a strict > keeps the earliest
	// of equally accurate candidates — exactly the sequential loop.
	bestAcc := -1.0
	for i, oc := range outcomes {
		if oc.err != nil {
			return nil, oc.err
		}
		if !oc.done {
			markPartialResult(res, partialReason(ctx.Err()))
			prog.MarkPartial(res.PartialReason)
			lg.Warn("evaluation stopped early", "reason", res.PartialReason, "evaluated", len(res.Evaluated), "candidates", len(candidates))
			break
		}
		pe := PathEval{Path: candidates[i], Eval: oc.eval}
		res.Evaluated = append(res.Evaluated, pe)
		if oc.eval.Accuracy > bestAcc {
			bestAcc = oc.eval.Accuracy
			res.Best = pe
			res.Features = oc.features
		}
	}
	// Materialising a path is deterministic (the join RNG is reseeded
	// from Config.Seed on every call and the graph is an immutable
	// snapshot), so this rebuilds exactly the table the winner trained on.
	table, err := d.materializeBest(ctx, res.Best.Path, ranking.Base)
	if err != nil {
		return nil, err
	}
	res.Table = table
	res.TotalTime = ranking.SelectionTime + time.Since(start)
	if res.Partial && !ranking.Partial {
		// A partial ranking already counted itself in RunContext; only an
		// evaluation-phase stop adds a new partial run.
		d.cfg.Telemetry.Meter().Inc(telemetry.CtrPartialRuns)
	}
	prog.Finish()
	lg.Info("augmentation finished",
		"evaluated", len(res.Evaluated), "best_model", res.Best.Eval.Model,
		"best_accuracy", res.Best.Eval.Accuracy, "partial", res.Partial,
		"total_time", res.TotalTime)
	return res, nil
}

// candidateOutcome is what one worker leaves in a candidate's slot: the
// trained feature set and score when done, an error, or neither when the
// candidate did not run (the context was done before or during its
// materialisation).
type candidateOutcome struct {
	done     bool
	features []string
	eval     ml.EvalResult
	err      error
}

// evaluateCandidate materialises candidate i at full size and trains the
// factory's model on it; the joined table is garbage once it returns. A
// panic — in a join, in Fit, anywhere — becomes the candidate's error,
// as safeExpand does for the joins of the search, so a pool goroutine
// never takes the process down.
func (d *Discovery) evaluateCandidate(ctx context.Context, i int, p RankedPath, ranking *Ranking, factory ml.Factory) (oc candidateOutcome) {
	defer recoverInto(&oc.err, fmt.Sprintf("evaluating candidate %d", i))
	tr := d.cfg.Telemetry.Trace()
	prog := d.cfg.Progress
	// The base candidate materialises without joins; detach it from
	// ctx's cancellation (keeping its trace) so the floor guarantee
	// holds even when ctx is already done.
	candCtx := ctx
	if i == 0 {
		candCtx = context.WithoutCancel(ctx)
	}
	prog.SetPhase(obsrv.PhaseMaterialize)
	candCtx, matSpan := tr.StartSpan(candCtx, telemetry.SpanMaterialize)
	table, features, err := d.MaterializePathContext(candCtx, p, ranking.Base)
	matSpan.SetInt("hops", len(p.Edges))
	matSpan.End()
	if errors.Is(err, errs.ErrCancelled) {
		return candidateOutcome{}
	}
	if err != nil {
		return candidateOutcome{err: err}
	}
	prog.SetPhase(obsrv.PhaseTrain)
	_, trainSpan := tr.StartSpan(ctx, telemetry.SpanTrainEval)
	trainSpan.SetStr("model", factory.Name)
	trainSpan.SetInt("features", len(features))
	eval, err := ml.EvaluateFrameLogged(table, features, ranking.Label, factory.New(d.cfg.Seed), d.cfg.Seed, d.cfg.Logger)
	trainSpan.End()
	if err != nil {
		return candidateOutcome{err: err}
	}
	return candidateOutcome{done: true, features: features, eval: eval}
}

// materializeBest rebuilds the winning path's table for the result. It
// ignores ctx's cancellation, like the base candidate: the winner was
// already chosen, and the result must carry its table.
func (d *Discovery) materializeBest(ctx context.Context, p RankedPath, base *frame.Frame) (table *frame.Frame, err error) {
	defer recoverInto(&err, "materialising the best path")
	ctx, span := d.cfg.Telemetry.Trace().StartSpan(context.WithoutCancel(ctx), telemetry.SpanMaterialize)
	defer span.End()
	span.SetInt("hops", len(p.Edges))
	table, _, err = d.MaterializePathContext(ctx, p, base)
	return table, err
}

// recoverInto, deferred, turns a panic into *err, naming what was being
// done.
func recoverInto(err *error, what string) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("core: %s: panic: %v", what, r)
	}
}

// markPartialResult flags the result Partial under reason, first cause
// winning — the evaluation-phase counterpart of markPartial.
func markPartialResult(res *AugmentResult, reason string) {
	if !res.Partial {
		res.Partial = true
		res.PartialReason = reason
	}
}

// MaterializePath joins the full base table along the path with no
// external cancellation; it is MaterializePathContext under
// context.Background().
func (d *Discovery) MaterializePath(p RankedPath, base *frame.Frame) (*frame.Frame, []string, error) {
	return d.MaterializePathContext(context.Background(), p, base)
}

// MaterializePathContext joins the full base table along the path and
// returns the augmented table plus the feature set to train with (base
// features + the path's selected features, deduplicated). ctx flows into
// every hop's join row loop; a cancellation aborts with an error wrapping
// errs.ErrCancelled.
func (d *Discovery) MaterializePathContext(ctx context.Context, p RankedPath, base *frame.Frame) (*frame.Frame, []string, error) {
	rp := make(relational.Path, len(p.Edges))
	for i, e := range p.Edges {
		to := d.g.Table(e.B)
		if to == nil {
			return nil, nil, fmt.Errorf("core: table %q vanished from graph", e.B)
		}
		rp[i] = relational.Hop{FromCol: e.A + "." + e.ColA, To: to, ToCol: e.ColB}
	}
	table, _, err := rp.Materialize(base, relational.Options{
		Ctx:       ctx,
		Rng:       rand.New(rand.NewSource(d.cfg.Seed)),
		Telemetry: d.cfg.Telemetry,
		Log:       d.cfg.Logger,
	})
	if err != nil {
		return nil, nil, err
	}
	features := make([]string, 0, len(d.baseFeaturesOf(base))+len(p.Features))
	seen := make(map[string]bool)
	for _, f := range append(d.baseFeaturesOf(base), p.Features...) {
		if !seen[f] && table.HasColumn(f) {
			seen[f] = true
			features = append(features, f)
		}
	}
	return table, features, nil
}

func (d *Discovery) baseFeaturesOf(base *frame.Frame) []string {
	out := make([]string, 0, base.NumCols()-1)
	for _, name := range base.ColumnNames() {
		if name != d.label {
			out = append(out, name)
		}
	}
	return out
}
