// Package core implements AutoFeat itself: ranking-based transitive
// feature discovery over join paths (Section VI of the paper). Given a
// Dataset Relation Graph and a base table with a label column, it
// traverses the graph breadth-first, prunes join paths by similarity
// score and data quality, pushes every surviving join through the
// streaming feature-selection pipeline (relevance top-κ, then redundancy
// against the global selected set), ranks paths with Algorithm 2, and
// finally trains ML models on the top-k paths to pick the winner.
package core

import (
	"fmt"
	"log/slog"
	"runtime"
	"time"

	"autofeat/internal/frame"
	"autofeat/internal/fselect"
	"autofeat/internal/obsrv"
	"autofeat/internal/relational"
	"autofeat/internal/telemetry"
)

// joinFunc is the signature of relational.LeftJoin; Config carries an
// injectable override (unexported, test-only) so the fault-injection
// harness can substitute failing or slow joins without touching the
// relational package.
type joinFunc func(left, right *frame.Frame, leftKey, rightKey string, opt relational.Options) (*relational.Result, error)

// Config holds AutoFeat's hyper-parameters. The zero value is not usable;
// start from DefaultConfig.
type Config struct {
	// Tau is the data-quality threshold τ: a join whose completeness
	// (non-null ratio over the added columns) falls below τ is pruned.
	// The paper recommends and evaluates with τ = 0.65.
	Tau float64
	// Kappa is κ, the maximum number of features kept per joined table by
	// the relevance analysis. The paper recommends κ in [10, 15] and
	// evaluates with 15.
	Kappa int
	// Relevance is the relevance metric (Spearman in the paper's final
	// configuration). Nil disables relevance analysis (Figure 9 ablation).
	Relevance fselect.Relevance
	// Redundancy is the redundancy metric (MRMR in the paper's final
	// configuration). Nil disables redundancy analysis (Figure 9
	// ablation).
	Redundancy fselect.Redundancy
	// TopK is the number of top-ranked join paths trained with the target
	// ML model at the end of discovery.
	TopK int
	// MaxDepth caps the transitive join-path length (number of hops).
	MaxDepth int
	// SampleSize bounds the stratified sample of the base table used
	// during feature selection (Section VI: sampling only affects
	// selection, never model training).
	SampleSize int
	// BeamWidth, when > 0, keeps only the top-scoring BeamWidth states at
	// each BFS level (beam search) — the "more aggressive pruning" the
	// paper lists as future work for organisation-scale lakes. 0 disables
	// beaming (the paper's exhaustive BFS).
	BeamWidth int
	// SimilarityPruning enables the first pruning strategy: among
	// parallel edges to the same neighbour, keep only the top-scoring
	// join column(s).
	SimilarityPruning bool
	// Seed drives every random choice (sampling, join normalisation,
	// model training), making runs reproducible.
	Seed int64
	// Workers bounds the worker pool that evaluates the candidate joins
	// of one BFS depth concurrently, and then trains the model on the
	// base table and the top-k paths concurrently. 0 means GOMAXPROCS;
	// 1 forces the fully sequential path. Rankings, evaluations, the
	// chosen table and manifests are bit-identical for every worker
	// count: results are folded in deterministic candidate order, join
	// normalisation derives a per-edge RNG stream from (Seed, depth,
	// edge) rather than sharing one generator, and every top-k candidate
	// seeds its own model and split from Seed.
	Workers int
	// Telemetry, when non-nil, receives spans and metrics from every
	// phase of the run (BFS levels, joins, relevance/redundancy,
	// ranking, materialisation, training). Nil — the default — disables
	// collection at negligible cost.
	Telemetry *telemetry.Collector
	// Timeout, when > 0, bounds the wall-clock time of a discovery run:
	// RunContext derives a deadline and the traversal degrades to a
	// partial ranking (Ranking.Partial) when it expires. The BFS is an
	// any-time search, so whatever was ranked before the deadline is
	// still a valid (if shorter) ranking. 0 disables the deadline.
	Timeout time.Duration
	// MaxEvalJoins, when > 0, caps the number of joins the traversal
	// evaluates, which bounds Algorithm 1's BFS on dense data-lake
	// multigraphs. DefaultConfig sets 3000. An exhausted budget flags
	// the ranking Partial and counts every skipped candidate under the
	// budget_exhausted pruning reason. The budget is applied
	// positionally in enumeration order, so the partial ranking is
	// bit-identical at every worker count. <= 0 means unlimited.
	MaxEvalJoins int
	// KeyCache, when non-nil, is the join-key index cache the run uses
	// instead of a fresh per-run cache: right-side key→row indexes built
	// for one run are then reused by every later run sharing the cache.
	// A resident Lake session injects its lake-wide cache here so warm
	// discoveries skip the index builds entirely. The cache keys on
	// column identity, so sharing is only effective (and only safe)
	// while the graph's tables stay resident and immutable — both
	// guaranteed by the Lake. Nil — the default — keeps the per-run
	// cache of the one-shot path.
	KeyCache *relational.KeyIndexCache
	// Progress, when non-nil, receives live run state (BFS depth, frontier
	// size, per-reason prunes, budget consumption, worker occupancy) for
	// the introspection server's /runs/{id} endpoint. Nil — the default —
	// disables tracking; every update is nil-safe and lock-cheap.
	Progress *obsrv.RunProgress
	// Logger, when non-nil, receives structured log records from the
	// pipeline (run lifecycle at Info, per-depth progress at Debug,
	// partial results and recovered panics at Warn). Nil — the default —
	// disables logging.
	Logger *slog.Logger
	// joinFn, when non-nil, replaces relational.LeftJoin for every join
	// evaluation — the fault-injection seam used by tests to prove that
	// failing or slow joins degrade deterministically. Unexported: only
	// package-internal tests can set it.
	joinFn joinFunc
}

// DefaultConfig returns the paper's evaluation configuration:
// τ = 0.65, κ = 15, Spearman relevance, MRMR redundancy.
func DefaultConfig() Config {
	return Config{
		Tau:               0.65,
		Kappa:             15,
		Relevance:         fselect.SpearmanRelevance{},
		Redundancy:        fselect.NewMRMR(),
		TopK:              4,
		MaxDepth:          3,
		SampleSize:        1000,
		MaxEvalJoins:      3000,
		SimilarityPruning: true,
		Seed:              1,
	}
}

// workers resolves Workers: 0 means GOMAXPROCS.
func (c Config) workers() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

// log returns the configured logger, normalised so call sites never
// nil-check: a nil Logger becomes the nop logger.
func (c Config) log() *slog.Logger { return telemetry.OrNop(c.Logger) }

func (c Config) validate() error {
	if c.Tau < 0 || c.Tau > 1 {
		return fmt.Errorf("core: tau %v out of [0,1]", c.Tau)
	}
	if c.Kappa < 1 {
		return fmt.Errorf("core: kappa %d must be >= 1", c.Kappa)
	}
	if c.TopK < 1 {
		return fmt.Errorf("core: topK %d must be >= 1", c.TopK)
	}
	if c.MaxDepth < 1 {
		return fmt.Errorf("core: maxDepth %d must be >= 1", c.MaxDepth)
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: workers %d must be >= 0 (0 = GOMAXPROCS)", c.Workers)
	}
	if c.Timeout < 0 {
		return fmt.Errorf("core: timeout %v must be >= 0 (0 = none)", c.Timeout)
	}
	return nil
}
