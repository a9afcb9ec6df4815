// Package autofeat is the public API of the AutoFeat reproduction:
// ranking-based transitive feature discovery over join paths (Ionescu et
// al., ICDE 2024). Given a base table with a classification label and a
// collection of candidate tables, AutoFeat builds a Dataset Relation
// Graph (DRG), explores multi-hop join paths breadth-first, prunes
// low-quality joins, selects relevant and non-redundant features with
// Spearman + MRMR, ranks the surviving paths without training a model,
// and finally trains the target model only on the top-k paths.
//
// The primary entry points are OpenLake (load a lake once, keep it
// resident) and Lake.Discover (run one augmentation request against it);
// the Lake builds its Dataset Relation Graph once, under the matcher and
// threshold (or KFK constraints) it was opened with, and shares a
// join-key index cache across requests, so repeated discoveries skip the
// paper's offline phase entirely:
//
//	lk, _ := autofeat.OpenLake("lake/")             // offline phase, paid once
//	res, _ := lk.Discover(ctx, autofeat.Request{
//	        Base: "orders", Label: "churned", Model: "lightgbm",
//	})
//	fmt.Println(res.Augment.Best.Path, res.Augment.Best.Eval.Accuracy)
//
// Graphs and discoveries are built only through a Lake: Lake.DRG returns
// its graph, Lake.NewDiscovery prepares a two-step run and Lake.AutoTune
// grid-searches τ and κ. A lake's DRG settings are fixed when it is
// opened; to compare two settings over one set of tables, open two lakes
// (NewLake(l.Tables(), opts...) shares the frames).
// Context-first methods are the canonical pipeline API:
// Discovery.RunContext and Discovery.AugmentContext (Run and Augment are
// the same calls under context.Background()).
package autofeat

import (
	"context"
	"io"
	"log/slog"
	"strings"

	"autofeat/internal/core"
	"autofeat/internal/discovery"
	"autofeat/internal/errs"
	"autofeat/internal/frame"
	"autofeat/internal/fselect"
	"autofeat/internal/graph"
	"autofeat/internal/lake"
	"autofeat/internal/ml"
	"autofeat/internal/obsrv"
	"autofeat/internal/telemetry"
)

// Error taxonomy. Every error AutoFeat returns for a cause the caller can
// act on matches exactly one of these sentinels under errors.Is; wrapped
// causes (an *fs.PathError, context.DeadlineExceeded, ...) stay reachable
// through errors.As / errors.Is on the same chain.
var (
	// ErrBadInput classifies malformed user input: unreadable or corrupt
	// CSVs, unknown model or metric names, invalid configuration.
	ErrBadInput = errs.ErrBadInput
	// ErrBudgetExceeded classifies an exhausted resource budget
	// (Config.MaxEvalJoins). Discovery itself does
	// not error on budgets — it degrades to a Partial ranking — so this
	// surfaces only from callers that choose to treat Partial as fatal.
	ErrBudgetExceeded = errs.ErrBudgetExceeded
	// ErrCancelled classifies aborts caused by a cancelled context or an
	// expired deadline; the context's own error is in the wrap chain.
	ErrCancelled = errs.ErrCancelled
)

// Table is a named, typed, columnar table — the unit of the data lake.
type Table = frame.Frame

// Column is one typed column of a Table.
type Column = frame.Column

// Graph is the Dataset Relation Graph: an undirected weighted multigraph
// of datasets and join opportunities.
type Graph = graph.Graph

// Edge is one join opportunity between two datasets.
type Edge = graph.Edge

// KFK declares a known key–foreign-key constraint for WithKFKs.
type KFK = discovery.KFK

// Config holds AutoFeat's hyper-parameters (τ, κ, metrics, top-k, ...).
type Config = core.Config

// Discovery is a configured AutoFeat run over a DRG.
type Discovery = core.Discovery

// Ranking is the ordered list of scored join paths a discovery produces.
type Ranking = core.Ranking

// RankedPath is one scored join path with its selected features.
type RankedPath = core.RankedPath

// AugmentResult is the end-to-end output: best path, augmented table,
// trained feature set and timings.
type AugmentResult = core.AugmentResult

// ModelFactory builds fresh classifier instances for evaluation.
type ModelFactory = ml.Factory

// EvalResult reports a model evaluation (accuracy, AUC, F1).
type EvalResult = ml.EvalResult

// DefaultConfig returns the paper's evaluation configuration: τ = 0.65,
// κ = 15, Spearman relevance, MRMR redundancy.
func DefaultConfig() Config { return core.DefaultConfig() }

// Lake is a resident data-lake session — the primary entry point of the
// package. A Lake loads its tables once, builds its one DRG once under
// the settings it was opened with, and shares one join-key index cache
// across every discovery run against it, so repeated discoveries skip
// the paper's offline phase. Safe for concurrent use; the long-lived discovery
// service (`autofeat serve`) schedules many overlapping requests against
// one Lake.
type Lake = lake.Lake

// LakeOption configures a Lake when it is opened (OpenLake,
// OpenLakeLenient, NewLake, Discover): WithMatcher, WithThreshold,
// WithKFKs, WithFormat. The settings hold for the lake's lifetime; a
// caller that wants another one opens a second lake.
type LakeOption = lake.Option

// MatcherKind names a DRG construction strategy: MatcherExact or
// MatcherSketched.
type MatcherKind = lake.MatcherKind

// DRG matcher kinds selectable with WithMatcher.
const (
	// MatcherExact is the COMA-style composite matcher with exact
	// value-set containment (the paper's data-lake setting).
	MatcherExact = lake.MatcherExact
	// MatcherSketched replaces exact value-set intersection with MinHash
	// sketches — constant-time column comparisons for large lakes.
	MatcherSketched = lake.MatcherSketched
)

// Request describes one discovery run against a Lake: base table, label
// column, optional model name and discovery configuration.
type Request = lake.Request

// LakeResult is the outcome of one Lake.Discover call: ranking,
// optional model evaluation, provenance manifest, and cache/graph
// warmth indicators.
type LakeResult = lake.Result

// Format selects the on-disk table format OpenLake reads; see
// WithFormat.
type Format = lake.Format

// Lake formats selectable with WithFormat.
const (
	// FormatAuto (the default) detects per table: *.csv and columnar
	// *.afc files may coexist, a packed table shadowing its source CSV.
	FormatAuto = lake.FormatAuto
	// FormatCSV pins the legacy text path: only *.csv files are read.
	FormatCSV = lake.FormatCSV
	// FormatColumnar pins the packed path: only *.afc files are read
	// (produce them with PackLake or `autofeat pack`).
	FormatColumnar = lake.FormatColumnar
)

// OpenLake loads every table file in dir (sorted by table name) as a
// resident Lake session. By default both *.csv and packed columnar
// *.afc tables load (WithFormat pins one); packed tables are decoded
// without parsing, with their discovery sketches precomputed, which is
// what makes cold opens of large lakes cheap — see PackLake. Options
// fix the lake's DRG settings: matcher kind (WithMatcher), threshold
// (WithThreshold) or declared constraints (WithKFKs). An unknown
// matcher or format and a directory without table files are errors; an
// unparsable file aborts with an ErrBadInput-matching error naming it.
func OpenLake(dir string, opts ...LakeOption) (*Lake, error) { return lake.Open(dir, opts...) }

// PackLake converts a CSV lake directory in place: every *.csv table is
// rewritten as a columnar *.afc file with persisted per-column stats
// and MinHash sketches (atomic tmp+rename per table; the CSVs stay, and
// FormatAuto prefers the packed files from then on). Returns the number
// of tables packed. The CLI equivalent is `autofeat pack <dir>`.
func PackLake(dir string) (int, error) { return lake.Pack(dir) }

// WithFormat selects the table format OpenLake reads: FormatAuto (the
// default), FormatCSV or FormatColumnar.
func WithFormat(f Format) LakeOption { return lake.WithFormat(f) }

// OpenLakeLenient loads a lake like OpenLake but skips files that fail
// to parse instead of aborting; each skipped file is reported as an
// ErrBadInput-matching error.
func OpenLakeLenient(dir string, opts ...LakeOption) (*Lake, []error) {
	return lake.OpenLenient(dir, opts...)
}

// NewLake wraps already-loaded tables as a resident Lake session.
func NewLake(tables []*Table, opts ...LakeOption) *Lake { return lake.New(tables, opts...) }

// WithMatcher selects the schema-matching strategy used to build DRGs
// (MatcherExact by default).
func WithMatcher(kind MatcherKind) LakeOption { return lake.WithMatcher(kind) }

// WithThreshold sets the matcher threshold above which a column
// correspondence becomes a DRG edge (0.55 by default, the paper's
// data-lake setting).
func WithThreshold(t float64) LakeOption { return lake.WithThreshold(t) }

// WithKFKs switches DRG construction to the curated benchmark setting:
// only the declared key–foreign-key constraints become weight-1 edges
// and the matcher settings are ignored.
func WithKFKs(constraints []KFK) LakeOption { return lake.WithKFKs(constraints) }

// ReadTableCSV loads one CSV file (with header) as a Table; the table name
// is the file name without extension. Column types are inferred.
func ReadTableCSV(path string) (*Table, error) { return frame.ReadCSVFile(path) }

// ReadTable parses CSV from a reader under the given table name.
func ReadTable(name string, r io.Reader) (*Table, error) { return frame.ReadCSV(name, r) }

// Discover is the one-call convenience over the Lake path: open dir,
// build the DRG and run one request. The lake lives only for the call.
// Long-lived callers should hold the Lake from OpenLake instead, so
// consecutive requests hit its caches.
func Discover(ctx context.Context, dir string, req Request, opts ...LakeOption) (*LakeResult, error) {
	l, err := lake.Open(dir, opts...)
	if err != nil {
		return nil, err
	}
	return l.Discover(ctx, req)
}

// TuneOutcome reports a Lake.AutoTune grid search over τ and κ (the
// paper's future-work "dynamic hyper-parameter tuning").
type TuneOutcome = core.TuneOutcome

// TuneResult is one configuration evaluated by Lake.AutoTune.
type TuneResult = core.TuneResult

// Telemetry is the observability collector of the online pipeline:
// attach one to Config.Telemetry and every phase of a run (BFS levels,
// join materialisation, relevance/redundancy analysis, ranking, model
// training) records spans and metrics into it. Nil disables collection.
type Telemetry = telemetry.Collector

// TelemetrySnapshot is a point-in-time capture of a Telemetry collector:
// counters, gauges and histograms, including the span_seconds.<span>
// histograms its per-phase breakdown (Phases) is read from.
type TelemetrySnapshot = telemetry.Snapshot

// PruneStats is the by-reason pruning breakdown of a Ranking
// (similarity, join_failed, quality_below_tau, beam_evicted,
// budget_exhausted, cancelled).
type PruneStats = core.PruneStats

// NewTelemetry returns a live collector for Config.Telemetry.
func NewTelemetry() *Telemetry { return telemetry.New() }

// TraceStore is the bounded in-memory trace retention behind the
// introspection server's /v1/traces endpoints: attach one to a Telemetry
// collector with Telemetry.ObserveSpans and every finished span is
// grouped by trace ID, evicting whole traces FIFO past the cap.
type TraceStore = telemetry.TraceStore

// FlightRecorder is the fixed-size ring buffer of recently finished
// spans behind /debug/flight — a postmortem view that survives trace
// store eviction.
type FlightRecorder = telemetry.FlightRecorder

// NewTraceStore returns a trace store retaining at most maxTraces traces
// of maxSpansPerTrace spans each (0 picks the defaults, 256 and 4096).
func NewTraceStore(maxTraces, maxSpansPerTrace int) *TraceStore {
	return telemetry.NewTraceStore(maxTraces, maxSpansPerTrace)
}

// NewFlightRecorder returns a flight recorder holding the last capacity
// spans (0 picks the default, 256).
func NewFlightRecorder(capacity int) *FlightRecorder {
	return telemetry.NewFlightRecorder(capacity)
}

// SpanLog keeps every span a Telemetry collector finishes, for a
// one-shot run's trace file: attach one with Telemetry.ObserveSpans
// before the run and hand it to WriteTraceFile after. The zero value is
// ready to use; long-lived processes use a TraceStore instead.
type SpanLog = telemetry.SpanLog

// WriteTraceFile writes a span log as JSON ({"spans": [...]}, in start
// order).
func WriteTraceFile(path string, l *SpanLog) error {
	return telemetry.WriteTraceFile(path, l)
}

// WriteMetricsFile writes a snapshot's counters, gauges, histograms,
// pruning breakdown and per-phase durations as JSON.
func WriteMetricsFile(path string, s *TelemetrySnapshot) error {
	return telemetry.WriteMetricsFile(path, s)
}

// RunProgress is the live run tracker behind the introspection server's
// /runs/{id} endpoint: attach one to Config.Progress and the discovery
// pipeline publishes BFS depth, frontier size, per-reason prune counts,
// budget consumption and worker occupancy into it, lock-cheap and nil-safe.
type RunProgress = obsrv.RunProgress

// RunStatus is the JSON document a RunProgress snapshot renders to — the
// payload of GET /runs/{id}.
type RunStatus = obsrv.RunStatus

// IntrospectionConfig configures an introspection Server.
type IntrospectionConfig = obsrv.Config

// IntrospectionServer is the embeddable HTTP introspection server:
// /metrics (Prometheus text), /healthz, /runs and /runs/{id}, optionally
// sharing its mux with the net/http/pprof handlers.
type IntrospectionServer = obsrv.Server

// NewRunProgress returns a live tracker for Config.Progress under the
// given run id.
func NewRunProgress(id string) *RunProgress { return obsrv.NewRunProgress(id) }

// NewIntrospectionServer builds an introspection server; call
// ListenAndServe to serve it or Handler to mount it elsewhere.
func NewIntrospectionServer(cfg IntrospectionConfig) *IntrospectionServer {
	return obsrv.NewServer(cfg)
}

// NewLogger returns a structured logger for Config.Logger writing to w at
// the given level; format "json" selects JSON output, anything else text.
func NewLogger(w io.Writer, level slog.Level, format string) *slog.Logger {
	return telemetry.NewLogger(w, level, format)
}

// ParseLogLevel parses a -log-level flag value ("debug", "info", "warn",
// "error"); ok is false for the empty string, "off" and "none", which
// disable logging.
func ParseLogLevel(s string) (level slog.Level, ok bool, err error) {
	return telemetry.ParseLogLevel(s)
}

// Manifest is the per-run provenance record (run_manifest.json): config
// snapshot, graph inventory and the full lineage of every ranked path —
// joins taken, similarity and data-quality at each decision point, and the
// relevance/redundancy score of every selected feature.
type Manifest = core.Manifest

// PathLineage is the provenance of one ranked path inside a Manifest.
type PathLineage = core.PathLineage

// WriteManifestFile writes a manifest to path as indented JSON.
func WriteManifestFile(path string, m *Manifest) error {
	return core.WriteManifestFile(path, m)
}

// ReadManifestFile parses a run_manifest.json document.
func ReadManifestFile(path string) (*Manifest, error) {
	return core.ReadManifestFile(path)
}

// Relevance is a pluggable relevance metric for Config (ablation studies).
type Relevance = fselect.Relevance

// Redundancy is a pluggable redundancy metric for Config.
type Redundancy = fselect.Redundancy

// RelevanceMetric returns the named relevance metric: "spearman",
// "pearson", "ig", "su", "relief". Unknown names return nil, which
// disables the relevance stage.
func RelevanceMetric(name string) Relevance { return fselect.RelevanceByName(name) }

// RedundancyMetric returns the named redundancy metric: "mrmr", "mifs",
// "cife", "jmi", "cmim". Unknown names return nil, which disables the
// redundancy stage.
func RedundancyMetric(name string) Redundancy { return fselect.RedundancyByName(name) }

// ModelByName returns the named model factory, or an ErrBadInput-matching
// error listing the supported names when the name is unknown. The
// supported names are "lightgbm", "xgboost", "randomforest",
// "extratrees" (tree ensembles) and "knn", "lr_l1" (k-nearest-neighbours,
// L1-regularised logistic regression).
func ModelByName(name string) (ModelFactory, error) {
	f, ok := ml.FactoryByName(name)
	if !ok {
		known := make([]string, 0, 6)
		for _, m := range Models() {
			known = append(known, m.Name)
		}
		return ModelFactory{}, errs.BadInput("autofeat: unknown model %q (supported: %s)", name, strings.Join(known, ", "))
	}
	return f, nil
}

// Models lists every available model factory.
func Models() []ModelFactory {
	return append(ml.TreeFactories(), ml.NonTreeFactories()...)
}
