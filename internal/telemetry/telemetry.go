// Package telemetry is the observability layer of the AutoFeat
// reproduction: a zero-dependency, allocation-light span tracer and
// metrics registry threaded through the online pipeline (BFS traversal,
// join materialisation, relevance/redundancy analysis, Algorithm 2
// ranking).
//
// Design rules:
//
//   - Disabled by default. Every entry point is nil-receiver safe, so
//     call sites write `tr.StartSpan(...)` / `mx.Inc(...)` unconditionally
//     and pay only a nil check when telemetry is off (<2% discovery
//     overhead, guarded by BenchmarkMicroDiscoveryTelemetry).
//   - One Collector bundles a Tracer and a Metrics registry; Config
//     carries a *Collector so a single field enables everything.
//   - Collector.Snapshot is the metrics export: WriteMetricsFile
//     writes it for a one-shot run, a cluster worker serves it as JSON,
//     and internal/obsrv renders it as Prometheus text. Finished spans
//     go to the attached observers (SpanLog, TraceStore,
//     FlightRecorder).
//
// The span and metric names below are shared across packages so the
// exporters, docs and tests agree on the vocabulary.
package telemetry

import "time"

// Span names recorded by the online pipeline, one constant per phase of
// Algorithm 1/2 (see DESIGN.md "Observability" for the line mapping).
const (
	// SpanRun covers one whole Discovery.Run (Algorithm 1 end to end).
	SpanRun = "discovery.run"
	// SpanSample covers the stratified base-table sample (Section VI).
	SpanSample = "discovery.sample"
	// SpanDepth covers one BFS level (Algorithm 1 outer loop).
	SpanDepth = "discovery.depth"
	// SpanEnumerate covers candidate-edge enumeration between one
	// frontier table and one neighbour, including similarity pruning.
	SpanEnumerate = "discovery.enumerate_edges"
	// SpanJoinEval covers one evaluated join: materialisation, quality
	// check and streaming feature selection (Algorithm 1 inner loop).
	SpanJoinEval = "discovery.evaluate_join"
	// SpanRank covers the final Algorithm 2 ordering of surviving paths.
	SpanRank = "discovery.rank"
	// SpanMaterialize covers full-size path materialisation during
	// EvaluateRanking (after discovery, before training).
	SpanMaterialize = "discovery.materialize"
	// SpanTrainEval covers one model training + evaluation on a top-k path.
	SpanTrainEval = "ml.train_eval"
	// SpanLeftJoin covers one relational.LeftJoin call.
	SpanLeftJoin = "relational.left_join"
	// SpanRelevance covers the relevance half of fselect.Pipeline.Run.
	SpanRelevance = "fselect.relevance"
	// SpanRedundancy covers the redundancy half of fselect.Pipeline.Run.
	SpanRedundancy = "fselect.redundancy"
	// SpanFold covers the per-depth fold phase: merging evaluated joins
	// back into the frontier in enumeration order.
	SpanFold = "discovery.fold"
	// SpanHTTP covers the HTTP handling of one traced service request
	// (requests carrying a traceparent header, and every mutating
	// request).
	SpanHTTP = "serve.http"
	// SpanJob covers one discovery job end to end: from submission
	// through queueing, execution and terminal state.
	SpanJob = "serve.job"
	// SpanQueueWait covers the time a submitted job waits for a
	// scheduler slot.
	SpanQueueWait = "serve.queue_wait"
	// SpanClusterDispatch covers one coordinator dispatch round-trip:
	// it parents the owning worker's serve.http/serve.job spans under
	// the coordinator relay span so a dispatched job reads as a single
	// trace end to end.
	SpanClusterDispatch = "cluster.dispatch"
)

// Metric names emitted by the online pipeline.
const (
	// CtrPathsExplored counts every evaluated join across the run.
	CtrPathsExplored = "discovery.paths_explored"
	// CtrPathsKept counts the join paths that survived into the ranking.
	CtrPathsKept = "discovery.paths_kept"
	// CtrJoins counts relational.LeftJoin invocations.
	CtrJoins = "relational.joins"
	// CtrKeyIndexHits / CtrKeyIndexMisses count key-index cache lookups in
	// relational.LeftJoin when a KeyIndexCache is attached.
	CtrKeyIndexHits   = "relational.key_index_cache_hits"
	CtrKeyIndexMisses = "relational.key_index_cache_misses"
	// CtrJoinPanics counts join evaluations that panicked and were
	// recovered into a join_failed prune (graceful degradation: one
	// corrupt table prunes one path instead of killing the process).
	CtrJoinPanics = "discovery.join_panics"
	// CtrPartialRuns counts discovery runs that returned a partial
	// ranking (cancellation, deadline or budget exhaustion).
	CtrPartialRuns = "discovery.partial_runs"
	// GaugeSelectionSeconds records the wall-clock feature-discovery time
	// of the last run.
	GaugeSelectionSeconds = "discovery.selection_seconds"
	// GaugeWorkers records the resolved worker-pool size of the last run.
	GaugeWorkers = "discovery.workers"
	// HistQueueWaitSeconds observes how long each admitted job waited
	// for a scheduler slot; HistTimeToResultSeconds observes
	// submission-to-terminal-state latency per job.
	HistQueueWaitSeconds    = "serve.queue_wait_seconds"
	HistTimeToResultSeconds = "serve.time_to_result_seconds"
)

// Per-endpoint service metrics ("serve.http_*.<route>") and per-lake
// gauges ("lake.*.<lake>"). Like CtrPrunedPrefix these are name
// prefixes: the route or lake ID is appended by internal/serve and
// internal/obsrv, keeping the registry label-free.
const (
	// CtrHTTPRequestsPrefix counts requests per route
	// ("serve.http_requests.<route>"); CtrHTTPErrorsPrefix counts the
	// subset answered with a 4xx/5xx status.
	CtrHTTPRequestsPrefix = "serve.http_requests."
	CtrHTTPErrorsPrefix   = "serve.http_errors."
	// HistHTTPSecondsPrefix observes request latency per route
	// ("serve.http_seconds.<route>").
	HistHTTPSecondsPrefix = "serve.http_seconds."
	// HistSpanSecondsPrefix observes the duration of every ended span per
	// span name ("span_seconds.<span>"); Snapshot.Phases reads it.
	HistSpanSecondsPrefix = "span_seconds."
	// GaugeLakeTablesPrefix records the resident table count per lake
	// ("lake.tables.<lake>").
	GaugeLakeTablesPrefix = "lake.tables."
	// GaugeLakeKeyCacheHitsPrefix, GaugeLakeKeyCacheMissesPrefix and
	// GaugeLakeKeyCacheSizePrefix record the shared key-index cache's
	// cumulative hits, misses and resident index count per lake
	// ("lake.key_cache_hits.<lake>", "lake.key_cache_misses.<lake>",
	// "lake.key_cache_size.<lake>").
	GaugeLakeKeyCacheHitsPrefix   = "lake.key_cache_hits."
	GaugeLakeKeyCacheMissesPrefix = "lake.key_cache_misses."
	GaugeLakeKeyCacheSizePrefix   = "lake.key_cache_size."
	// GaugeLakeIndexColumnsPrefix records how many join-candidate
	// columns the lake's LSH index currently holds per lake
	// ("lake.index_columns.<lake>"; 0 until the index is lazily built).
	GaugeLakeIndexColumnsPrefix = "lake.index_columns."
	// GaugeLakeIndexBucketsPrefix records the occupied LSH bucket count
	// (slot bands + value anchors + name buckets) per lake
	// ("lake.index_buckets.<lake>").
	GaugeLakeIndexBucketsPrefix = "lake.index_buckets."
	// CtrLakeMutationsPrefix counts applied table mutations per kind
	// ("lake.index_mutations.register", "lake.index_mutations.replace",
	// "lake.index_mutations.drop").
	CtrLakeMutationsPrefix = "lake.index_mutations."
	// CtrLakeMutationErrorsPrefix counts rejected table mutations per
	// kind ("lake.index_mutation_errors.<kind>").
	CtrLakeMutationErrorsPrefix = "lake.index_mutation_errors."
)

// Cluster vocabulary: the coordinator/worker deployment mode of the
// discovery service (internal/serve cluster files). Counters and gauges
// are owned by the coordinator except cluster.heartbeats_sent, which the
// worker-side agent increments.
const (
	// GaugeClusterWorkersUp records how many workers are currently alive
	// (heartbeat within the timeout window) in the coordinator's
	// membership table.
	GaugeClusterWorkersUp = "cluster.workers_up"
	// GaugeClusterStoreJobs records how many jobs the replicated job
	// store currently holds across all states.
	GaugeClusterStoreJobs = "cluster.store_jobs"
	// GaugeClusterLakesPrefix records how many lakes are placed on each
	// worker ("cluster.lakes_per_worker.<worker>").
	GaugeClusterLakesPrefix = "cluster.lakes_per_worker."
	// CtrClusterHeartbeats counts heartbeats the coordinator accepted.
	CtrClusterHeartbeats = "cluster.heartbeats"
	// CtrClusterHeartbeatsSent counts heartbeats the worker-side agent
	// delivered to its coordinator.
	CtrClusterHeartbeatsSent = "cluster.heartbeats_sent"
	// CtrClusterDispatches counts discovery jobs the coordinator handed
	// to a worker (first attempts and retries alike).
	CtrClusterDispatches = "cluster.dispatches"
	// CtrClusterDispatchRetries counts dispatch attempts beyond a job's
	// first (worker busy, worker unreachable, or rerouted after a death).
	CtrClusterDispatchRetries = "cluster.dispatch_retries"
	// CtrClusterReroutedJobs counts jobs moved to a new owner because the
	// worker holding them was declared dead.
	CtrClusterReroutedJobs = "cluster.rerouted_jobs"
	// CtrClusterProxied counts client requests the coordinator forwarded
	// to a worker (lake mutations, job status, manifests, cancels).
	CtrClusterProxied = "cluster.proxied_requests"
	// CtrClusterProxyErrors counts forwarded requests that failed at the
	// transport level (worker unreachable), answered with 502.
	CtrClusterProxyErrors = "cluster.proxy_errors"
	// CtrClusterQuotaRejected counts submissions rejected with 429
	// because the tenant exceeded its in-flight job quota.
	CtrClusterQuotaRejected = "cluster.quota_rejected"
	// HistClusterDispatchSeconds observes the latency of one dispatch
	// round-trip to a worker (POST /v1/discoveries on the worker).
	HistClusterDispatchSeconds = "cluster.dispatch_seconds"
	// CtrClusterStoreJobsEvicted counts terminal job documents dropped
	// from the replicated job store by the retention cap (FIFO, oldest
	// terminal docs first).
	CtrClusterStoreJobsEvicted = "cluster.store_jobs_evicted"
	// CtrClusterTelemetryPulls counts worker telemetry snapshots the
	// coordinator's sweep loop fetched for metrics federation;
	// CtrClusterTelemetryErrors counts pull attempts that failed
	// (worker unreachable or wrong proto).
	CtrClusterTelemetryPulls  = "cluster.telemetry_pulls"
	CtrClusterTelemetryErrors = "cluster.telemetry_errors"
)

// Cluster event types recorded in the coordinator's EventLog (served at
// GET /v1/cluster/events and mirrored to slog). Each value is the
// `type` field of one journal entry.
const (
	// EventWorkerJoined records a worker appearing in the membership
	// table for the first time.
	EventWorkerJoined = "worker_joined"
	// EventWorkerRejoined records a previously-dead worker resuming
	// heartbeats.
	EventWorkerRejoined = "worker_rejoined"
	// EventWorkerDead records a worker declared dead after missing its
	// heartbeat window.
	EventWorkerDead = "worker_dead"
	// EventJobRerouted records a job moved off a dead worker back to the
	// queue for re-placement.
	EventJobRerouted = "job_rerouted"
	// EventDispatchRetry records a dispatch attempt deferred for a later
	// sweep (worker busy, unreachable, or no owner placed yet).
	EventDispatchRetry = "dispatch_retry"
	// EventQuotaRejected records a submission rejected with 429 because
	// the tenant was at its in-flight quota.
	EventQuotaRejected = "quota_rejected"
	// EventJobsEvicted records terminal job documents evicted by the
	// store's retention cap.
	EventJobsEvicted = "jobs_evicted"
)

// CtrPrunedPrefix prefixes the per-reason pruning counters
// ("discovery.pruned.<reason>"); Snapshot.Pruning collects them into one
// breakdown object.
const CtrPrunedPrefix = "discovery.pruned."

// Pruning reasons. JoinFailed and QualityBelowTau discard evaluated
// joins (their counters sum to PathsExplored - len(Paths)); Similarity,
// BeamEvicted, BudgetExhausted and Cancelled truncate the search space
// before or after evaluation and are tracked separately.
const (
	// PruneSimilarity counts parallel edges dropped by similarity-score
	// pruning before evaluation.
	PruneSimilarity = "similarity"
	// PruneJoinFailed counts evaluated joins that matched no rows, errored
	// or would have joined on the label column.
	PruneJoinFailed = "join_failed"
	// PruneQualityBelowTau counts evaluated joins whose completeness fell
	// below the τ threshold.
	PruneQualityBelowTau = "quality_below_tau"
	// PruneBeamEvicted counts frontier states dropped by beam search.
	PruneBeamEvicted = "beam_evicted"
	// PruneBudgetExhausted counts candidate edges skipped because the
	// join budget (MaxEvalJoins) ran out; the run returns a partial
	// ranking.
	PruneBudgetExhausted = "budget_exhausted"
	// PruneCancelled counts candidate edges abandoned when the run's
	// context was cancelled or its deadline expired; the run returns a
	// partial ranking.
	PruneCancelled = "cancelled"
)

// PrunedCounter returns the counter name for a pruning reason.
func PrunedCounter(reason string) string { return CtrPrunedPrefix + reason }

// Collector bundles a Tracer and a Metrics registry — the single handle
// the pipeline threads through Config, fselect.Pipeline and
// relational.Options. A nil *Collector disables collection everywhere.
// Build one with New or NewWithClock: they bind the tracer to the
// registry, so every ended span lands in its span_seconds.<name>
// histogram.
type Collector struct {
	T *Tracer
	M *Metrics
}

// New returns a Collector with a live tracer and metrics registry.
func New() *Collector { return bind(NewTracer()) }

// NewWithClock returns a Collector whose tracer reads time from now —
// deterministic timestamps for golden tests.
func NewWithClock(now func() time.Time) *Collector { return bind(NewTracerWithClock(now)) }

// bind pairs t with a fresh registry that receives its span durations.
func bind(t *Tracer) *Collector {
	t.metrics = NewMetrics()
	return &Collector{T: t, M: t.metrics}
}

// Trace returns the tracer, nil when the collector is nil (disabled).
func (c *Collector) Trace() *Tracer {
	if c == nil {
		return nil
	}
	return c.T
}

// Meter returns the metrics registry, nil when the collector is nil.
func (c *Collector) Meter() *Metrics {
	if c == nil {
		return nil
	}
	return c.M
}

// ObserveSpans registers span observers (trace store, flight recorder,
// span log) on the collector's tracer; a nil collector or tracer
// ignores the call.
func (c *Collector) ObserveSpans(obs ...SpanObserver) {
	t := c.Trace()
	for _, o := range obs {
		t.AddObserver(o)
	}
}

// Snapshot captures the collector's metrics registry. A nil collector
// yields an empty (but valid) snapshot.
func (c *Collector) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if c == nil {
		return s
	}
	if c.M != nil {
		s.Counters, s.Gauges, s.Histograms = c.M.snapshot()
	}
	return s
}
