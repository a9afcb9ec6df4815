package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"autofeat/internal/errs"
	"autofeat/internal/frame"
	"autofeat/internal/fselect"
	"autofeat/internal/graph"
	"autofeat/internal/obsrv"
	"autofeat/internal/relational"
	"autofeat/internal/telemetry"
)

// Discovery is one configured AutoFeat run over a Dataset Relation Graph.
type Discovery struct {
	cfg      Config
	g        *graph.Graph
	baseName string
	// label is the fully-qualified label column ("base.label").
	label string
}

// New prepares a discovery run. base must be a node of g; label is the
// label column inside the base table (unqualified).
func New(g *graph.Graph, base, label string, cfg Config) (*Discovery, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	bt := g.Table(base)
	if bt == nil {
		return nil, fmt.Errorf("core: base table %q not in graph", base)
	}
	if !bt.HasColumn(label) {
		return nil, fmt.Errorf("core: base table %q has no label column %q", base, label)
	}
	return &Discovery{cfg: cfg, g: g, baseName: base, label: base + "." + label}, nil
}

// PruneStats breaks the pruning work of one run down by reason.
//
// JoinFailed and QualityBelowTau discard joins that were evaluated, so
// JoinFailed + QualityBelowTau == PathsExplored - len(Paths) always
// holds. Similarity, BeamEvicted, BudgetExhausted and Cancelled truncate
// the search space around the evaluated joins: similarity-pruned edges
// are never evaluated, beam-evicted states keep their ranked path but
// are not expanded further, and the last two count candidates left
// unevaluated when the run stopped early.
type PruneStats struct {
	// Similarity counts parallel edges discarded by similarity-score
	// pruning (Section IV-C, first strategy) before evaluation.
	Similarity int `json:"similarity"`
	// JoinFailed counts evaluated joins pruned because the join matched
	// no rows, errored, or would have used the label as a join key.
	JoinFailed int `json:"join_failed"`
	// QualityBelowTau counts evaluated joins pruned by completeness < τ
	// (Section IV-C, second strategy).
	QualityBelowTau int `json:"quality_below_tau"`
	// BeamEvicted counts frontier states dropped by beam search; their
	// already-ranked paths survive but are never expanded further.
	BeamEvicted int `json:"beam_evicted"`
	// BudgetExhausted counts candidate joins left unevaluated because
	// Config.MaxEvalJoins ran out. A non-zero count always comes with
	// Ranking.Partial = true.
	BudgetExhausted int `json:"budget_exhausted"`
	// Cancelled counts the candidate joins of the depth that was in
	// flight when the run's context was cancelled or its deadline
	// expired. The whole depth is discarded — see Ranking.Partial — so
	// the count covers every candidate of that depth, evaluated or not.
	Cancelled int `json:"cancelled"`
}

// add counts n prunes under the given telemetry reason.
func (p *PruneStats) add(reason string, n int) {
	switch reason {
	case telemetry.PruneSimilarity:
		p.Similarity += n
	case telemetry.PruneJoinFailed:
		p.JoinFailed += n
	case telemetry.PruneQualityBelowTau:
		p.QualityBelowTau += n
	case telemetry.PruneBeamEvicted:
		p.BeamEvicted += n
	case telemetry.PruneBudgetExhausted:
		p.BudgetExhausted += n
	case telemetry.PruneCancelled:
		p.Cancelled += n
	}
}

// Discarded is the number of evaluated joins that were discarded —
// exactly PathsExplored - len(Paths).
func (p PruneStats) Discarded() int { return p.JoinFailed + p.QualityBelowTau }

// Total sums every reason, including search-space truncation.
func (p PruneStats) Total() int {
	return p.Similarity + p.JoinFailed + p.QualityBelowTau + p.BeamEvicted +
		p.BudgetExhausted + p.Cancelled
}

// Ranking is the output of the discovery phase: join paths ordered by
// descending Algorithm 2 score, plus everything needed to materialise and
// evaluate them.
type Ranking struct {
	// Base is the base table with qualified column names.
	Base *frame.Frame
	// BaseFeatures are the base table's own feature columns (label
	// excluded), always part of any trained feature set.
	BaseFeatures []string
	// Label is the fully-qualified label column.
	Label string
	// Paths is the ranked list, best first.
	Paths []RankedPath
	// PathsExplored counts every join evaluated, including pruned ones.
	PathsExplored int
	// Prune is the by-reason pruning breakdown of this run;
	// Prune.Discarded() counts the joins the two pruning strategies
	// discarded.
	Prune PruneStats
	// SelectionTime is the wall-clock feature-discovery time — the
	// efficiency metric of Section VII ("feature selection time").
	SelectionTime time.Duration
	// Partial reports that the search stopped early — context cancelled,
	// deadline expired, or Config.MaxEvalJoins exhausted — and Paths covers
	// only the part of the search space reached before the stop. The
	// ranking is still valid and deterministic: budgets are applied
	// positionally, and a cancellation discards the whole in-flight BFS
	// depth, so the result is bit-identical at every worker count.
	Partial bool
	// PartialReason names what stopped a Partial run: "cancelled",
	// "deadline" or "max_eval_joins". Empty when
	// Partial is false. The first cause wins when several fire.
	PartialReason string
}

// TopK returns the best k paths (fewer when the ranking is shorter).
// Negative k is treated as 0.
func (r *Ranking) TopK(k int) []RankedPath {
	if k < 0 {
		k = 0
	}
	if k > len(r.Paths) {
		k = len(r.Paths)
	}
	return r.Paths[:k]
}

// state is one BFS frontier entry: a materialised (sampled) join result
// with its path and the features selected along it.
type state struct {
	node    string // frontier table
	f       *frame.Frame
	edges   []graph.Edge
	visited map[string]bool
	// features and scores accumulated along this path.
	features  []string
	relScores []float64
	redScores []float64
	quality   float64
	// qualities is the per-hop completeness history, aligned with edges —
	// the provenance manifest records the non-null ratio at every
	// decision point, not just the path minimum.
	qualities []float64
	// selCodes is R_sel for THIS path: the Discretize codes of the base
	// features plus the columns selected along the path, in sample-row
	// space. Redundancy is "conditioned on a feature subset" (Section
	// III-A); the subset that matters is the one the path's final model
	// will train on, so R_sel is tracked per path rather than globally.
	// Each column is binned once, when it is selected, and the codes are
	// shared read-only with every state descending from it. It stays
	// empty when the run has no redundancy stage, which alone reads it.
	selCodes [][]int
}

// Run executes Algorithm 1 with no external cancellation; it is exactly
// RunContext under context.Background(), which is the canonical
// (context-first) form. Config budgets (Timeout, MaxEvalJoins) still
// apply.
func (d *Discovery) Run() (*Ranking, error) {
	return d.RunContext(context.Background())
}

// RunContext executes Algorithm 1: BFS traversal with similarity-score and
// data-quality pruning, streaming feature selection per join, and
// Algorithm 2 ranking of every surviving path.
//
// The context is observed cooperatively — at every BFS depth, before each
// join evaluation, inside the join row loop and at the feature-selection
// stage boundaries. Cancellation (or an expired Config.Timeout deadline)
// does not return an error: the run degrades to the best ranking found so
// far, flagged Partial with PartialReason "cancelled" or "deadline". The
// in-flight depth is discarded wholesale (counted under the cancelled
// pruning reason), so the partial ranking is bit-identical at every
// worker count. An exhausted MaxEvalJoins degrades the same way under
// the budget_exhausted pruning reason.
func (d *Discovery) RunContext(ctx context.Context) (*Ranking, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	if d.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d.cfg.Timeout)
		defer cancel()
	}
	tr := d.cfg.Telemetry.Trace()
	mx := d.cfg.Telemetry.Meter()
	prog := d.cfg.Progress
	lg := d.cfg.log()
	// The run span joins the caller's trace when ctx carries one (an
	// inbound traceparent threaded through serve) and starts a fresh
	// trace otherwise; every child span below parents through ctx, so
	// concurrent runs sharing one Collector stay correctly attributed.
	ctx, runSpan := tr.StartSpan(ctx, telemetry.SpanRun)
	runSpan.SetStr("base", d.baseName)
	runSpan.SetStr("label", d.label)
	defer runSpan.End()
	if sc, ok := telemetry.SpanContextFrom(ctx); ok {
		lg = lg.With("trace_id", sc.Trace.String())
	}

	prog.Begin(d.baseName, d.label, d.cfg.MaxDepth, d.cfg.Timeout, d.cfg.MaxEvalJoins)
	prog.SetPhase(obsrv.PhaseSample)
	lg.Info("discovery started",
		"base", d.baseName, "label", d.label,
		"max_depth", d.cfg.MaxDepth, "tau", d.cfg.Tau, "kappa", d.cfg.Kappa,
		"timeout", d.cfg.Timeout, "budget_joins", d.cfg.MaxEvalJoins)

	rng := rand.New(rand.NewSource(d.cfg.Seed))

	base := d.g.Table(d.baseName).Prefixed(d.baseName)
	// Sample the base table for selection only (Section VI): the sample
	// bounds selection cost, never training data.
	_, sampleSpan := tr.StartSpan(ctx, telemetry.SpanSample)
	sample := base
	if d.cfg.SampleSize > 0 {
		var err error
		sample, err = base.StratifiedSample(d.label, d.cfg.SampleSize, rng)
		if err != nil {
			sampleSpan.End()
			return nil, err
		}
	}
	sampleSpan.SetInt("rows", sample.NumRows())
	sampleSpan.End()
	y, err := sample.Labels(d.label)
	if err != nil {
		return nil, err
	}

	baseFeatures := make([]string, 0, sample.NumCols()-1)
	for _, name := range base.ColumnNames() {
		if name != d.label {
			baseFeatures = append(baseFeatures, name)
		}
	}
	// R_sel starts as the base table's features (Section VI).
	var selected [][]int
	if d.cfg.Redundancy != nil {
		cols := make([][]float64, len(baseFeatures))
		for i, name := range baseFeatures {
			cols[i] = sample.Column(name).Floats()
		}
		selected = fselect.Discretize(cols)
	}

	pipeline := &fselect.Pipeline{
		Relevance:  d.cfg.Relevance,
		Redundancy: d.cfg.Redundancy,
		K:          d.cfg.Kappa,
		Telemetry:  d.cfg.Telemetry,
		Log:        d.cfg.Logger,
	}

	rank := &Ranking{Base: base, BaseFeatures: baseFeatures, Label: d.label}
	// prune records n candidates pruned for reason everywhere a prune
	// shows: the ranking's PruneStats, the pruned counter and the live
	// tracker p.
	prune := func(p *obsrv.RunProgress, reason string, n int) {
		rank.Prune.add(reason, n)
		mx.Add(telemetry.PrunedCounter(reason), int64(n))
		p.AddPruned(reason, n)
	}
	frontier := []*state{{
		node:     d.baseName,
		f:        sample,
		visited:  map[string]bool{d.baseName: true},
		quality:  1,
		selCodes: selected,
	}}

	workers := d.cfg.workers()
	runSpan.SetInt("workers", workers)
	mx.SetGauge(telemetry.GaugeWorkers, float64(workers))
	prog.SetWorkers(workers)
	prog.SetPhase(obsrv.PhaseDiscover)
	// cache memoises right-side key indexes across the run: every join
	// against the same (table column, normalisation seed) reuses the
	// key→row map instead of rescanning the column. A Config.KeyCache
	// (injected by a resident Lake session) extends the memo across
	// runs, which is what makes warm served discoveries skip the
	// offline index builds.
	cache := d.cfg.KeyCache
	if cache == nil {
		cache = relational.NewKeyIndexCache()
	}

	// One evalScratch per worker, reused by every join it evaluates.
	scratch := make([]evalScratch, workers)

	// capped flips once the join budget fires; the rest of the active
	// frontier is then only counted, never evaluated, and the traversal
	// does not descend another level.
	capped := false
	for depth := 0; depth < d.cfg.MaxDepth && len(frontier) > 0 && !capped; depth++ {
		if err := ctx.Err(); err != nil {
			markPartial(rank, prog, partialReason(err))
			break
		}
		dctx, depthSpan := tr.StartSpan(ctx, telemetry.SpanDepth)
		depthSpan.SetInt("depth", depth+1)
		depthSpan.SetInt("frontier", len(frontier))
		prog.BeginDepth(depth+1, len(frontier))

		// Phase 1 — enumerate this depth's candidate joins sequentially,
		// in deterministic (frontier, neighbour, edge) order. Similarity
		// pruning happens here, before any evaluation.
		type job struct {
			st *state
			e  graph.Edge
		}
		var jobs []job
		for _, st := range frontier {
			for _, nb := range d.g.Neighbors(st.node) {
				if st.visited[nb] {
					continue
				}
				_, enumSpan := tr.StartSpan(dctx, telemetry.SpanEnumerate)
				edges, simPruned := d.candidateEdges(st.node, nb)
				enumSpan.SetStr("from", st.node)
				enumSpan.SetStr("to", nb)
				enumSpan.SetInt("edges", len(edges))
				enumSpan.End()
				prune(prog, telemetry.PruneSimilarity, simPruned)
				for _, e := range edges {
					jobs = append(jobs, job{st: st, e: e})
				}
			}
		}
		prog.AddEnumerated(len(jobs))

		// Apply the join budget positionally: every evaluated join
		// increments PathsExplored by exactly one, so the sequential
		// traversal would evaluate the first `allowed` candidates of this
		// depth and skip the rest. The surviving prefix is therefore
		// identical at every worker count.
		allowed := len(jobs)
		if d.cfg.MaxEvalJoins > 0 {
			if room := d.cfg.MaxEvalJoins - rank.PathsExplored; room < allowed {
				capped = true
				prune(prog, telemetry.PruneBudgetExhausted, allowed-room)
				allowed = room
				markPartial(rank, prog, "max_eval_joins")
			}
		}
		prog.SetDepthCandidates(allowed)

		// Phase 2 — evaluate the candidates on the worker pool. Each join
		// is independent: per-edge RNG streams (see edgeSeed) and the
		// read-only frontier state make evaluation order irrelevant.
		type outcome struct {
			child  *state
			reason string
		}
		outcomes := make([]outcome, allowed)
		// evalOne evaluates job i on worker k, with that worker's own
		// scratch; it returns false — without evaluating — once the
		// context is done, so the pool drains quickly after a
		// cancellation.
		evalOne := func(i, k int) bool {
			if ctx.Err() != nil {
				return false
			}
			prog.JoinStart()
			jb := jobs[i]
			// Each worker derives its own child context from the depth
			// span, so concurrent join evaluations parent correctly under
			// the shared tracer.
			jctx, joinSpan := tr.StartSpan(dctx, telemetry.SpanJoinEval)
			joinSpan.SetStr("edge", fmt.Sprintf("%s.%s -> %s.%s", jb.e.A, jb.e.ColA, jb.e.B, jb.e.ColB))
			joinSpan.SetFloat("weight", jb.e.Weight)
			jseed := edgeSeed(d.cfg.Seed, depth, jb.e)
			jrng := scratch[k].rng(jseed)
			child, reason := d.safeExpand(jctx, jb.st, jb.e, y, pipeline, jrng, jseed, cache, &scratch[k], joinSpan)
			if reason != "" {
				joinSpan.SetStr("pruned", reason)
			}
			joinSpan.End()
			prog.JoinDone(reason)
			outcomes[i] = outcome{child: child, reason: reason}
			return true
		}
		runPool(allowed, workers, evalOne)

		// A cancellation observed during this depth discards the depth
		// wholesale: which jobs finished before the stop depends on
		// goroutine scheduling, so keeping any of them would make the
		// partial ranking racy. Only fully-completed depths contribute
		// paths — that is what makes the partial result bit-identical at
		// every worker count.
		if err := ctx.Err(); err != nil {
			prune(prog, telemetry.PruneCancelled, allowed)
			markPartial(rank, prog, partialReason(err))
			depthSpan.SetStr("discarded", partialReason(err))
			depthSpan.End()
			lg.Warn("depth discarded", "depth", depth+1, "reason", partialReason(err), "candidates", allowed)
			break
		}

		// Phase 3 — fold the outcomes in job order, so PruneStats, path
		// order and the next frontier are bit-identical to the sequential
		// traversal regardless of worker count.
		_, foldSpan := tr.StartSpan(dctx, telemetry.SpanFold)
		foldSpan.SetInt("evaluated", allowed)
		var next []*state
		for i := 0; i < allowed; i++ {
			rank.PathsExplored++
			oc := outcomes[i]
			if oc.reason != "" {
				// JoinDone already counted this prune in the live tracker.
				prune(nil, oc.reason, 1)
				continue
			}
			rank.Paths = append(rank.Paths, RankedPath{
				Edges:     oc.child.edges,
				Score:     computeScore(oc.child.relScores, oc.child.redScores),
				Features:  oc.child.features,
				RelScores: oc.child.relScores,
				RedScores: oc.child.redScores,
				Quality:   oc.child.quality,
				Qualities: oc.child.qualities,
			})
			prog.AddPathsKept(1)
			next = append(next, oc.child)
		}
		if d.cfg.BeamWidth > 0 && len(next) > d.cfg.BeamWidth {
			// Beam search: keep the most promising states, judged by the
			// same Algorithm 2 score the ranking uses. Evicted states keep
			// their ranked path but are never expanded further.
			sort.SliceStable(next, func(i, j int) bool {
				return computeScore(next[i].relScores, next[i].redScores) >
					computeScore(next[j].relScores, next[j].redScores)
			})
			evicted := len(next) - d.cfg.BeamWidth
			prune(prog, telemetry.PruneBeamEvicted, evicted)
			next = next[:d.cfg.BeamWidth]
		}
		foldSpan.SetInt("kept", len(next))
		foldSpan.End()
		depthSpan.End()
		lg.Debug("depth complete",
			"depth", depth+1, "frontier", len(frontier), "evaluated", allowed,
			"kept", len(next), "paths_total", len(rank.Paths))
		frontier = next
	}

	prog.SetPhase(obsrv.PhaseRank)
	_, rankSpan := tr.StartSpan(ctx, telemetry.SpanRank)
	sort.SliceStable(rank.Paths, func(i, j int) bool {
		if rank.Paths[i].Score != rank.Paths[j].Score {
			return rank.Paths[i].Score > rank.Paths[j].Score
		}
		// Prefer shorter paths on ties: fewer joins, same information.
		return len(rank.Paths[i].Edges) < len(rank.Paths[j].Edges)
	})
	rankSpan.SetInt("paths", len(rank.Paths))
	rankSpan.End()

	rank.SelectionTime = time.Since(start)
	if rank.Partial {
		mx.Inc(telemetry.CtrPartialRuns)
		runSpan.SetStr("partial_reason", rank.PartialReason)
		lg.Warn("partial ranking", "reason", rank.PartialReason, "paths", len(rank.Paths))
	}
	mx.Add(telemetry.CtrPathsExplored, int64(rank.PathsExplored))
	mx.Add(telemetry.CtrPathsKept, int64(len(rank.Paths)))
	mx.SetGauge(telemetry.GaugeSelectionSeconds, rank.SelectionTime.Seconds())
	prog.SetPhase(obsrv.PhaseRanked)
	lg.Info("discovery finished",
		"paths", len(rank.Paths), "explored", rank.PathsExplored,
		"pruned", rank.Prune.Total(), "partial", rank.Partial,
		"selection_time", rank.SelectionTime)
	return rank, nil
}

// markPartial flags the ranking Partial under reason and mirrors the flag
// into the live progress tracker. The first cause to fire wins when
// several stop conditions trigger in one run.
func markPartial(rank *Ranking, prog *obsrv.RunProgress, reason string) {
	if !rank.Partial {
		rank.Partial = true
		rank.PartialReason = reason
	}
	prog.MarkPartial(reason)
}

// partialReason maps a context error to its Ranking.PartialReason name.
func partialReason(err error) string {
	if errors.Is(err, context.DeadlineExceeded) {
		return "deadline"
	}
	return "cancelled"
}

// candidateEdges applies the first pruning strategy (Section IV-C): with
// similarity pruning on, only the top-scoring join column(s) between the
// frontier and the neighbour survive; equal top scores each stay an
// individual join path. The second return value counts the parallel
// edges the strategy discarded.
func (d *Discovery) candidateEdges(from, to string) ([]graph.Edge, int) {
	edges := d.g.EdgesBetween(from, to)
	if !d.cfg.SimilarityPruning || len(edges) <= 1 {
		return edges, 0
	}
	best := edges[0].Weight
	for _, e := range edges[1:] {
		if e.Weight > best {
			best = e.Weight
		}
	}
	var out []graph.Edge
	for _, e := range edges {
		if e.Weight == best {
			out = append(out, e)
		}
	}
	return out, len(edges) - len(out)
}

// edgeSeed derives the deterministic RNG seed for one join evaluation
// from (Config.Seed, depth, edge). Deriving a fresh stream per edge —
// instead of sharing one *rand.Rand across the traversal — makes join
// normalisation independent of evaluation order, which is what lets the
// worker pool produce bit-identical rankings at any worker count.
func edgeSeed(seed int64, depth int, e graph.Edge) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(seed))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(depth))
	h.Write(buf[:])
	for _, s := range [...]string{e.A, e.ColA, e.B, e.ColB} {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	return int64(h.Sum64())
}

// runPool calls work(i, k) for every i in [0, n), handing items out in
// order to at most workers goroutines; k (< workers) names the calling
// worker, so callers can give each one its own scratch. A worker stops
// taking items once work returns false. With one worker or one item it
// runs inline on the caller's goroutine. runPool returns when every
// started item has finished. work must not panic: the BFS joins run
// behind safeExpand and the top-k candidates behind evaluateCandidate,
// which turn a panic into a pruned path or an error.
func runPool(n, workers int, work func(i, k int) bool) {
	w := min(workers, n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			if !work(i, 0) {
				return
			}
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n || !work(i, k) {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// safeExpand runs expand behind a panic guard: a panicking join (corrupt
// table, injected fault) is converted into a join_failed prune of that
// one path — recorded under the discovery.join_panics counter — instead
// of killing the whole process, or the worker pool with it.
func (d *Discovery) safeExpand(ctx context.Context, st *state, e graph.Edge, y []int, pipeline *fselect.Pipeline, rng *rand.Rand, seed int64, cache *relational.KeyIndexCache, sc *evalScratch, sp telemetry.Span) (child *state, reason string) {
	defer func() {
		if r := recover(); r != nil {
			d.cfg.Telemetry.Meter().Inc(telemetry.CtrJoinPanics)
			sp.SetStr("panic", fmt.Sprint(r))
			d.cfg.log().Warn("join panic recovered",
				"edge", fmt.Sprintf("%s.%s -> %s.%s", e.A, e.ColA, e.B, e.ColB),
				"panic", fmt.Sprint(r))
			child, reason = nil, telemetry.PruneJoinFailed
		}
	}()
	return d.expand(ctx, st, e, y, pipeline, rng, seed, cache, sc, sp)
}

// expand performs one join of Algorithm 1's inner loop: join, data-quality
// pruning, relevance and redundancy analysis, and R_sel update. It returns
// the child state, or a non-empty pruning reason when the path is pruned.
// Attributes of the evaluated join (matched rows, quality, features kept)
// are recorded on sp. rng (with its originating seed) drives join
// normalisation and must be private to this call; cache may be shared
// across concurrent expands; sc is the calling worker's scratch. ctx
// flows into the join row loop and the feature-selection stage
// boundaries; a cancellation observed there prunes the path under the
// cancelled reason (the caller then discards the whole depth, so the
// partial ranking stays deterministic).
func (d *Discovery) expand(ctx context.Context, st *state, e graph.Edge, y []int, pipeline *fselect.Pipeline, rng *rand.Rand, seed int64, cache *relational.KeyIndexCache, sc *evalScratch, sp telemetry.Span) (*state, string) {
	leftKey := e.A + "." + e.ColA
	if leftKey == d.label {
		// The label column must never act as a join key: matching rows
		// by label value would leak the target into the joined features.
		return nil, telemetry.PruneJoinFailed
	}
	right := d.g.Table(e.B)
	join := relational.LeftJoin
	if d.cfg.joinFn != nil {
		join = d.cfg.joinFn
	}
	res, err := join(st.f, right, leftKey, e.ColB, relational.Options{
		Ctx:       ctx,
		Rng:       rng,
		Seed:      seed,
		Cache:     cache,
		Telemetry: d.cfg.Telemetry,
		Log:       d.cfg.Logger,
	})
	if err != nil && errors.Is(err, errs.ErrCancelled) {
		return nil, telemetry.PruneCancelled
	}
	if err != nil || res.MatchedRows == 0 {
		// "If the join is not possible, prune."
		return nil, telemetry.PruneJoinFailed
	}
	sp.SetInt("matched_rows", res.MatchedRows)
	quality := res.Quality()
	sp.SetFloat("quality", quality)
	if quality < d.cfg.Tau {
		// Second pruning strategy: data quality below τ.
		return nil, telemetry.PruneQualityBelowTau
	}

	// Streaming feature selection over the columns this join added. The
	// candidates are converted into the worker's scratch: nothing keeps
	// them once the batch has run, since kept features leave as codes.
	total := 0
	for _, name := range res.AddedColumns {
		total += res.Frame.Column(name).Len()
	}
	buf := slices.Grow(sc.floats[:0], total) // no append below reallocates
	candidates := sc.cands[:0]
	names := make([]string, 0, len(res.AddedColumns))
	for _, name := range res.AddedColumns {
		start := len(buf)
		buf = res.Frame.Column(name).AppendFloats(buf)
		candidates = append(candidates, buf[start:len(buf):len(buf)])
		names = append(names, name)
	}
	sc.floats, sc.cands = buf, candidates
	sel := pipeline.RunContext(ctx, candidates, st.selCodes, y)
	if sel.Cancelled {
		return nil, telemetry.PruneCancelled
	}
	sp.SetInt("features_kept", len(sel.Kept))

	child := &state{
		node:    e.B,
		f:       res.Frame,
		edges:   appendEdge(st.edges, e),
		visited: copyVisited(st.visited, e.B),
		quality: math.Min(st.quality, quality),
	}
	child.qualities = append(append([]float64{}, st.qualities...), quality)
	child.features = append(append([]string{}, st.features...), pick(names, sel.Kept)...)
	child.relScores = append(append([]float64{}, st.relScores...), sel.RelScores...)
	child.redScores = append(append([]float64{}, st.redScores...), sel.RedScores...)

	// R_sel = R_sel ∪ R_red (Algorithm 1, line 18), tracked per path.
	// Even when the join adds nothing, the path survives as a stepping
	// stone to multi-hop paths (Section V-A: intermediate joins must not
	// be pruned).
	child.selCodes = append(st.selCodes[:len(st.selCodes):len(st.selCodes)], sel.Codes...)
	return child, ""
}

func appendEdge(edges []graph.Edge, e graph.Edge) []graph.Edge {
	out := make([]graph.Edge, len(edges)+1)
	copy(out, edges)
	out[len(edges)] = e
	return out
}

func copyVisited(v map[string]bool, add string) map[string]bool {
	out := make(map[string]bool, len(v)+1)
	for k := range v {
		out[k] = true
	}
	out[add] = true
	return out
}

func pick(names []string, idx []int) []string {
	out := make([]string, len(idx))
	for i, k := range idx {
		out[i] = names[k]
	}
	return out
}

// evalScratch is one worker's reusable buffers for evaluating joins: the
// float form of a join's candidate columns and the random source that
// join normalisation reseeds per edge. It holds nothing a result keeps,
// belongs to one run, and is never shared by two goroutines.
type evalScratch struct {
	floats []float64
	cands  [][]float64
	src    rand.Source
}

// rng returns a generator whose stream is that of
// rand.New(rand.NewSource(seed)): Seed fully resets the source.
func (sc *evalScratch) rng(seed int64) *rand.Rand {
	if sc.src == nil {
		sc.src = rand.NewSource(seed)
	} else {
		sc.src.Seed(seed)
	}
	return rand.New(sc.src)
}
