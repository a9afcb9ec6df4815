// Package serve implements the long-lived discovery service: a REST
// layer over resident lake sessions (internal/lake) that lets many
// augmentation requests run against a lake that was loaded, profiled
// and graph-matched once. It mounts on the internal/obsrv introspection
// mux, so one listener serves both planes:
//
//   - POST   /v1/lakes             — register (open) a lake directory
//   - GET    /v1/lakes             — list registered lakes
//   - POST   /v1/lakes/{id}/tables — register or replace one table (CSV body)
//   - DELETE /v1/lakes/{id}/tables/{table} — drop one table
//   - POST   /v1/discoveries       — submit a discovery run (202 + id)
//   - GET    /v1/discoveries       — list jobs with their states
//   - GET    /v1/discoveries/{id}  — job status, and the result once done
//   - GET    /v1/discoveries/{id}/manifest — the run's provenance manifest
//   - DELETE /v1/discoveries/{id}  — cancel a queued or running job
//
// Jobs run on a bounded scheduler: at most Config.Workers discoveries
// execute concurrently (admission via a semaphore), at most
// Config.QueueDepth jobs wait behind them, and submissions beyond that
// are rejected with 429 and a Retry-After header. Every job threads the
// existing RunProgress, telemetry collector and provenance manifest, so
// GET /runs/{id} and GET /metrics work unchanged for served traffic.
// Drain implements graceful shutdown: new submissions get 503 while
// in-flight jobs run to completion.
package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"autofeat/internal/core"
	"autofeat/internal/frame"
	"autofeat/internal/lake"
	"autofeat/internal/obsrv"
	"autofeat/internal/telemetry"
)

// Job states, in lifecycle order.
const (
	// StateQueued is a job admitted but waiting for a scheduler slot.
	StateQueued = "queued"
	// StateRunning is a job holding a scheduler slot.
	StateRunning = "running"
	// StateDone is a job that finished with a result (possibly Partial).
	StateDone = "done"
	// StateFailed is a job that returned an error.
	StateFailed = "failed"
	// StateCancelled is a job stopped by DELETE before completion; a
	// partial result may still be attached.
	StateCancelled = "cancelled"
)

// Config sizes and wires a Service.
type Config struct {
	// Workers bounds how many discovery jobs run concurrently — the
	// admission semaphore size. 0 defaults to GOMAXPROCS. Note each job
	// may itself use a per-request worker pool (core.Config.Workers), so
	// total parallelism is the product; size accordingly.
	Workers int
	// QueueDepth bounds how many admitted jobs may wait for a slot.
	// Submissions beyond it are rejected with 429 and Retry-After.
	// 0 defaults to 2×Workers.
	QueueDepth int
	// DefaultTimeout is applied as the per-job core.Config.Timeout when
	// the request does not set one. 0 leaves jobs unbounded.
	DefaultTimeout time.Duration
	// Collector, when non-nil, is shared by every served run so the
	// introspection /metrics endpoint aggregates served traffic.
	Collector *telemetry.Collector
	// Logger, when non-nil, receives service lifecycle records and is
	// threaded into every served run.
	Logger *slog.Logger
}

// Service is the long-lived discovery service: registered lake sessions,
// a job table, and the bounded scheduler that runs jobs against them.
type Service struct {
	cfg Config
	log *slog.Logger
	srv *obsrv.Server
	sem chan struct{}

	mu        sync.Mutex
	lakes     map[string]*lakeEntry
	lakeOrder []string
	jobs      map[string]*job
	jobOrder  []string
	nextLake  int
	nextJob   int

	queued   atomic.Int64
	draining atomic.Bool
	wg       sync.WaitGroup
}

// lakeEntry is one registered lake session.
type lakeEntry struct {
	id      string
	lake    *lake.Lake
	created time.Time
}

// job is one scheduled discovery run.
type job struct {
	id      string
	lakeID  string
	req     lake.Request
	cancel  context.CancelFunc
	traceID string
	span    telemetry.Span

	mu              sync.Mutex
	state           string
	err             string
	cancelRequested bool
	// result and manifest are what a job that ended done or cancelled
	// keeps of its *lake.Result: its rendered result section and its
	// provenance manifest. A failed job has neither.
	result    *resultDoc
	manifest  *core.Manifest
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// New builds a Service. Mount it on an obsrv.Server to expose the REST
// endpoints.
func New(cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 2 * cfg.Workers
	}
	return &Service{
		cfg:   cfg,
		log:   telemetry.OrNop(cfg.Logger),
		sem:   make(chan struct{}, cfg.Workers),
		lakes: make(map[string]*lakeEntry),
		jobs:  make(map[string]*job),
	}
}

// Mount registers the service's routes on the introspection server's
// mux and keeps a reference to it so each job's RunProgress appears
// under /runs/{id}.
func (s *Service) Mount(srv *obsrv.Server) {
	s.srv = srv
	srv.Handle("POST /v1/lakes", http.HandlerFunc(s.handleLakeCreate))
	srv.Handle("GET /v1/lakes", http.HandlerFunc(s.handleLakeList))
	srv.Handle("POST /v1/lakes/{id}/tables", http.HandlerFunc(s.handleTableUpsert))
	srv.Handle("DELETE /v1/lakes/{id}/tables/{table}", http.HandlerFunc(s.handleTableDrop))
	srv.Handle("POST /v1/discoveries", http.HandlerFunc(s.handleSubmit))
	srv.Handle("GET /v1/discoveries", http.HandlerFunc(s.handleJobList))
	srv.Handle("GET /v1/discoveries/{id}", http.HandlerFunc(s.handleJobGet))
	srv.Handle("GET /v1/discoveries/{id}/manifest", http.HandlerFunc(s.handleJobManifest))
	srv.Handle("DELETE /v1/discoveries/{id}", http.HandlerFunc(s.handleJobCancel))
}

// AddLake registers an already-open lake session under the given id,
// the programmatic path tests and embedders use instead of POST
// /v1/lakes. An existing id is replaced.
func (s *Service) AddLake(id string, l *lake.Lake) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.lakes[id]; !ok {
		s.lakeOrder = append(s.lakeOrder, id)
	}
	s.lakes[id] = &lakeEntry{id: id, lake: l, created: time.Now()}
	s.updateLakeGauges(id, l)
}

// updateLakeGauges refreshes the per-lake /metrics gauges: resident
// tables, key-index cache hits/misses/size, and the LSH index shape. Called on registration, after every job and after
// every table mutation so scrapes stay current without a background
// poller.
func (s *Service) updateLakeGauges(id string, l *lake.Lake) {
	mx := s.cfg.Collector.Meter()
	mx.SetGauge(telemetry.GaugeLakeTablesPrefix+id, float64(len(l.Tables())))
	hits, misses := l.CacheStats()
	mx.SetGauge(telemetry.GaugeLakeKeyCacheHitsPrefix+id, float64(hits))
	mx.SetGauge(telemetry.GaugeLakeKeyCacheMissesPrefix+id, float64(misses))
	mx.SetGauge(telemetry.GaugeLakeKeyCacheSizePrefix+id, float64(l.CacheSize()))
	ix := l.IndexStats()
	mx.SetGauge(telemetry.GaugeLakeIndexColumnsPrefix+id, float64(ix.Columns))
	mx.SetGauge(telemetry.GaugeLakeIndexBucketsPrefix+id, float64(ix.Slot+ix.Anchor+ix.Name))
}

// LakeIDs returns the registered lake ids in registration order — the
// worker-side agent reports them in every heartbeat.
func (s *Service) LakeIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.lakeOrder))
	copy(out, s.lakeOrder)
	return out
}

// Stats reports the scheduler's current occupancy: jobs waiting for a
// slot, jobs holding one, and the slot count. Heartbeats carry it so the
// coordinator can expose per-worker load.
func (s *Service) Stats() (queued, running, slots int) {
	return int(s.queued.Load()), len(s.sem), cap(s.sem)
}

// Draining reports whether the service has stopped admitting work.
func (s *Service) Draining() bool { return s.draining.Load() }

// Lake returns the registered lake session for id, or nil.
func (s *Service) Lake(id string) *lake.Lake {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.lakes[id]; e != nil {
		return e.lake
	}
	return nil
}

// Drain stops admission (new submissions get 503) and waits until every
// in-flight and queued job has finished, or ctx expires. It is the
// SIGTERM half of graceful shutdown; follow it with obsrv.Server.
// Shutdown to close the listener.
func (s *Service) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.log.Info("service draining", "jobs_queued", s.queued.Load())
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.log.Info("service drained")
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted: %w", ctx.Err())
	}
}

// lakeDoc describes one registered lake in responses.
type lakeDoc struct {
	ID     string `json:"id"`
	Dir    string `json:"dir"`
	Tables int    `json:"tables"`
}

// options checks a registration and returns the lake options it asks
// for. Both roles run it before they open or store anything, so a
// registration no worker could open is refused with 400 up front.
func (l StoredLake) options() ([]lake.Option, error) {
	if l.Dir == "" {
		return nil, errors.New("dir is required")
	}
	var opts []lake.Option
	if l.Matcher != "" {
		opts = append(opts, lake.WithMatcher(lake.MatcherKind(l.Matcher)))
	}
	if l.Threshold > 0 {
		opts = append(opts, lake.WithThreshold(l.Threshold))
	}
	if l.Format != "" {
		opts = append(opts, lake.WithFormat(lake.Format(l.Format)))
	}
	return opts, lake.Check(opts...)
}

func (s *Service) handleLakeCreate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "service is draining")
		return
	}
	var req StoredLake
	if !decodeBody(w, r, maxBodyBytes, &req) {
		return
	}
	opts, err := req.options()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	l, err := lake.Open(req.Dir, opts...)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	id := req.ID
	if id == "" {
		s.mu.Lock()
		id = nextLakeID(&s.nextLake, func(id string) bool { return s.lakes[id] != nil })
		s.mu.Unlock()
	}
	s.AddLake(id, l)
	s.log.Info("lake registered", "id", id, "dir", req.Dir, "tables", len(l.Tables()))
	writeJSON(w, http.StatusCreated, lakeDoc{ID: id, Dir: l.Dir(), Tables: len(l.Tables())})
}

func (s *Service) handleLakeList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	docs := make([]lakeDoc, 0, len(s.lakeOrder))
	for _, id := range s.lakeOrder {
		e := s.lakes[id]
		docs = append(docs, lakeDoc{ID: e.id, Dir: e.lake.Dir(), Tables: len(e.lake.Tables())})
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"lakes": docs})
}

// tableUpsertRequest is the POST /v1/lakes/{id}/tables body. Exactly one
// of CSV or Columnar carries the table content.
type tableUpsertRequest struct {
	// Name is the table (node) name to register (required).
	Name string `json:"name"`
	// CSV is the table content, header row first.
	CSV string `json:"csv,omitempty"`
	// Columnar is a base64-encoded columnar table file (the format
	// frame.EncodeColumnar writes; see DESIGN.md §14) — the binary
	// alternative to CSV for pre-packed tables.
	Columnar string `json:"columnar,omitempty"`
	// Replace selects ReplaceTable semantics: the named table must
	// already exist and is swapped for the uploaded one. Without it the
	// name must be new (RegisterTable).
	Replace bool `json:"replace,omitempty"`
}

// tableMutationDoc is the response to a successful table mutation.
type tableMutationDoc struct {
	Lake         string `json:"lake"`
	Table        string `json:"table"`
	Op           string `json:"op"`
	Tables       int    `json:"tables"`
	IndexBuilt   bool   `json:"index_built"`
	IndexColumns int    `json:"index_columns,omitempty"`
	Mutations    int64  `json:"mutations"`
}

// finishMutation records telemetry for one mutation attempt and, on
// success, refreshes the lake gauges and writes the mutation document.
func (s *Service) finishMutation(w http.ResponseWriter, id string, l *lake.Lake, op, table string, err error) {
	mx := s.cfg.Collector.Meter()
	if err != nil {
		mx.Inc(telemetry.CtrLakeMutationErrorsPrefix + op)
		s.log.Warn("lake mutation rejected", "lake", id, "op", op, "table", table, "error", err)
		writeError(w, http.StatusConflict, err.Error())
		return
	}
	mx.Inc(telemetry.CtrLakeMutationsPrefix + op)
	s.updateLakeGauges(id, l)
	ix := l.IndexStats()
	s.log.Info("lake mutated", "lake", id, "op", op, "table", table,
		"tables", len(l.Tables()), "index_built", ix.Built)
	writeJSON(w, http.StatusOK, tableMutationDoc{
		Lake:         id,
		Table:        table,
		Op:           op,
		Tables:       len(l.Tables()),
		IndexBuilt:   ix.Built,
		IndexColumns: ix.Columns,
		Mutations:    l.Mutations(),
	})
}

func (s *Service) handleTableUpsert(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "service is draining")
		return
	}
	id := r.PathValue("id")
	l := s.Lake(id)
	if l == nil {
		writeError(w, http.StatusNotFound, "unknown lake "+id)
		return
	}
	var req tableUpsertRequest
	if !decodeBody(w, r, maxBulkBodyBytes, &req) {
		return
	}
	if req.Name == "" || (req.CSV == "") == (req.Columnar == "") {
		writeError(w, http.StatusBadRequest, "name and exactly one of csv or columnar are required")
		return
	}
	var f *frame.Frame
	var err error
	if req.Columnar != "" {
		var raw []byte
		raw, err = base64.StdEncoding.DecodeString(req.Columnar)
		if err != nil {
			writeError(w, http.StatusBadRequest, "decode columnar: "+err.Error())
			return
		}
		f, err = frame.DecodeColumnar(req.Name, raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, "parse columnar: "+err.Error())
			return
		}
	} else {
		f, err = frame.ReadCSV(req.Name, strings.NewReader(req.CSV))
		if err != nil {
			writeError(w, http.StatusBadRequest, "parse csv: "+err.Error())
			return
		}
	}
	op := "register"
	if req.Replace {
		op = "replace"
		err = l.ReplaceTable(f)
	} else {
		err = l.RegisterTable(f)
	}
	s.finishMutation(w, id, l, op, req.Name, err)
}

func (s *Service) handleTableDrop(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "service is draining")
		return
	}
	id := r.PathValue("id")
	l := s.Lake(id)
	if l == nil {
		writeError(w, http.StatusNotFound, "unknown lake "+id)
		return
	}
	table := r.PathValue("table")
	s.finishMutation(w, id, l, "drop", table, l.DropTable(table))
}

// submitRequest is the POST /v1/discoveries body. Zero-valued optional
// fields fall back to core.DefaultConfig; the DRG is the lake's, fixed
// when it was registered. It is decoded strictly (decodeSubmit): a field
// it does not name is a 400, so a removed option fails loudly instead
// of being ignored.
type submitRequest struct {
	// Lake is the registered lake id (required).
	Lake string `json:"lake"`
	// Base and Label name the base table and its label column (required).
	Base  string `json:"base"`
	Label string `json:"label"`
	// Model optionally names the model trained on the top-k paths;
	// empty returns the ranking alone.
	Model string `json:"model,omitempty"`
	// Discovery hyper-parameters (0 = default).
	Tau     float64 `json:"tau,omitempty"`
	Kappa   int     `json:"kappa,omitempty"`
	TopK    int     `json:"topk,omitempty"`
	Depth   int     `json:"depth,omitempty"`
	Beam    int     `json:"beam,omitempty"`
	Workers int     `json:"workers,omitempty"`
	Seed    int64   `json:"seed,omitempty"`
	// Budgets (0 = the service's default timeout and the default join
	// budget of core.DefaultConfig).
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
	BudgetJoins    int     `json:"budget_joins,omitempty"`
}

// config resolves the request's overrides over core.DefaultConfig.
func (r submitRequest) config(def time.Duration) core.Config {
	cfg := core.DefaultConfig()
	if r.Tau > 0 {
		cfg.Tau = r.Tau
	}
	if r.Kappa > 0 {
		cfg.Kappa = r.Kappa
	}
	if r.TopK > 0 {
		cfg.TopK = r.TopK
	}
	if r.Depth > 0 {
		cfg.MaxDepth = r.Depth
	}
	if r.Beam > 0 {
		cfg.BeamWidth = r.Beam
	}
	if r.Workers > 0 {
		cfg.Workers = r.Workers
	}
	if r.Seed != 0 {
		cfg.Seed = r.Seed
	}
	cfg.Timeout = def
	if r.TimeoutSeconds > 0 {
		cfg.Timeout = time.Duration(r.TimeoutSeconds * float64(time.Second))
	}
	if r.BudgetJoins > 0 {
		cfg.MaxEvalJoins = r.BudgetJoins
	}
	return cfg
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "service is draining")
		return
	}
	body, ok := readBody(w, r, maxBodyBytes)
	if !ok {
		return
	}
	req, ok := decodeSubmit(w, body)
	if !ok {
		return
	}
	s.mu.Lock()
	entry := s.lakes[req.Lake]
	s.mu.Unlock()
	if entry == nil {
		writeError(w, http.StatusNotFound, "unknown lake "+req.Lake)
		return
	}
	// Queue-depth admission control: reject beyond the configured
	// backlog instead of buffering unboundedly. The machine-readable
	// retry_after_seconds mirrors the Retry-After header.
	if int(s.queued.Load()) >= s.cfg.QueueDepth {
		retry := s.retryAfterSeconds()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error":               "job queue is full",
			"retry_after_seconds": retry,
		})
		return
	}

	cfg := req.config(s.cfg.DefaultTimeout)
	cfg.Telemetry = s.cfg.Collector
	cfg.Logger = s.cfg.Logger
	lreq := lake.Request{Base: req.Base, Label: req.Label, Model: req.Model, Config: &cfg}

	// The job outlives the HTTP request, so detach its context from the
	// request's cancellation while keeping the trace identity the obsrv
	// middleware (or an inbound traceparent) put there.
	jctx, jobSpan := telemetry.StartSpan(context.WithoutCancel(r.Context()), s.cfg.Collector, telemetry.SpanJob)
	ctx, cancel := context.WithCancel(jctx)
	s.mu.Lock()
	s.nextJob++
	j := &job{
		id:        fmt.Sprintf("disc-%06d", s.nextJob),
		lakeID:    req.Lake,
		req:       lreq,
		cancel:    cancel,
		span:      jobSpan,
		state:     StateQueued,
		submitted: time.Now(),
	}
	if sc := jobSpan.Context(); sc.IsValid() {
		j.traceID = sc.Trace.String()
	}
	jobSpan.SetStr("id", j.id)
	jobSpan.SetStr("lake", req.Lake)
	jobSpan.SetStr("base", req.Base)
	if s.cfg.Logger != nil {
		lg := s.cfg.Logger.With("run_id", j.id)
		if j.traceID != "" {
			lg = lg.With("trace_id", j.traceID)
		}
		cfg.Logger = lg
	}
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
	s.mu.Unlock()

	s.queued.Add(1)
	s.wg.Add(1)
	go s.runJob(ctx, j, entry.lake)

	s.log.Info("discovery submitted", "id", j.id, "lake", req.Lake, "base", req.Base, "model", req.Model, "trace_id", j.traceID)
	w.Header().Set("Location", "/v1/discoveries/"+j.id)
	writeJSON(w, http.StatusAccepted, map[string]string{"id": j.id, "state": StateQueued})
}

// retryAfterSeconds estimates when a queue slot may free up: one second
// per running job is a deliberately crude but monotone signal.
func (s *Service) retryAfterSeconds() int {
	n := len(s.sem)
	if n < 1 {
		n = 1
	}
	return n
}

// runJob is the scheduler goroutine of one job: acquire a slot, run the
// discovery against the lake session, record the outcome.
func (s *Service) runJob(ctx context.Context, j *job, l *lake.Lake) {
	defer s.wg.Done()
	defer j.cancel()
	mx := s.cfg.Collector.Meter()
	_, waitSpan := telemetry.StartSpan(ctx, s.cfg.Collector, telemetry.SpanQueueWait)
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-ctx.Done():
		// Cancelled while still queued: never ran.
		waitSpan.SetStr("outcome", "cancelled")
		waitSpan.End()
		s.queued.Add(-1)
		j.mu.Lock()
		j.state = StateCancelled
		j.finished = time.Now()
		j.mu.Unlock()
		j.span.SetStr("state", StateCancelled)
		j.span.End()
		return
	}
	waitSpan.End()
	mx.Observe(telemetry.HistQueueWaitSeconds, time.Since(j.submitted).Seconds())
	s.queued.Add(-1)

	prog := obsrv.NewRunProgress(j.id)
	s.srv.Register(prog)
	hits, misses := l.CacheStats()
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	cfg := *j.req.Config
	cfg.Progress = prog
	j.req.Config = &cfg
	req := j.req
	j.mu.Unlock()

	res, err := l.Discover(ctx, req)

	j.mu.Lock()
	j.finished = time.Now()
	switch {
	case err != nil:
		j.state = StateFailed
		j.err = err.Error()
		s.log.Warn("discovery failed", "id", j.id, "trace_id", j.traceID, "error", err)
	case j.cancelRequested:
		j.state = StateCancelled
		j.result, j.manifest = renderResult(res, hits, misses), res.Manifest
		s.log.Info("discovery cancelled", "id", j.id, "trace_id", j.traceID, "paths", len(res.Ranking.Paths))
	default:
		j.state = StateDone
		j.result, j.manifest = renderResult(res, hits, misses), res.Manifest
		s.log.Info("discovery finished", "id", j.id, "trace_id", j.traceID,
			"paths", len(res.Ranking.Paths), "partial", res.Ranking.Partial,
			"warm_graph", res.WarmGraph, "duration", j.finished.Sub(j.started))
	}
	state := j.state
	submitted := j.submitted
	j.mu.Unlock()

	mx.Observe(telemetry.HistTimeToResultSeconds, time.Since(submitted).Seconds())
	j.span.SetStr("state", state)
	j.span.End()
	s.updateLakeGauges(j.lakeID, l)
}

// resultDoc is the result section of a job document.
type resultDoc struct {
	Paths            int     `json:"paths"`
	Explored         int     `json:"explored"`
	Pruned           int     `json:"pruned"`
	Partial          bool    `json:"partial"`
	PartialReason    string  `json:"partial_reason,omitempty"`
	BestPath         string  `json:"best_path,omitempty"`
	BestAccuracy     float64 `json:"best_accuracy,omitempty"`
	BestAUC          float64 `json:"best_auc,omitempty"`
	Evaluated        int     `json:"evaluated,omitempty"`
	SelectionSeconds float64 `json:"selection_seconds"`
	TotalSeconds     float64 `json:"total_seconds,omitempty"`
	GraphNodes       int     `json:"graph_nodes"`
	GraphEdges       int     `json:"graph_edges"`
	WarmGraph        bool    `json:"warm_graph"`
	CacheHits        int64   `json:"cache_hits"`
	CacheMisses      int64   `json:"cache_misses"`
	CacheHitsDelta   int64   `json:"cache_hits_delta"`
	CacheMissesDelta int64   `json:"cache_misses_delta"`
}

// renderResult renders the result section of a finished job once, from
// its result and the lake's key-index cache counters read when the job
// started. The job keeps the section, not the result, so neither the
// best path's table nor the full ranking outlives the job's run.
func renderResult(r *lake.Result, hitsBefore, missesBefore int64) *resultDoc {
	rd := &resultDoc{
		Paths:            len(r.Ranking.Paths),
		Explored:         r.Ranking.PathsExplored,
		Pruned:           r.Ranking.Prune.Total(),
		Partial:          r.Ranking.Partial,
		PartialReason:    r.Ranking.PartialReason,
		SelectionSeconds: r.Ranking.SelectionTime.Seconds(),
		GraphNodes:       r.GraphNodes,
		GraphEdges:       r.GraphEdges,
		WarmGraph:        r.WarmGraph,
		CacheHits:        r.CacheHits,
		CacheMisses:      r.CacheMisses,
		CacheHitsDelta:   r.CacheHits - hitsBefore,
		CacheMissesDelta: r.CacheMisses - missesBefore,
	}
	if a := r.Augment; a != nil {
		rd.Partial = a.Partial
		rd.PartialReason = a.PartialReason
		rd.BestPath = a.Best.Path.String()
		rd.BestAccuracy = a.Best.Eval.Accuracy
		rd.BestAUC = a.Best.Eval.AUC
		rd.Evaluated = len(a.Evaluated)
		rd.TotalSeconds = a.TotalTime.Seconds()
	}
	return rd
}

// jobDoc is the GET /v1/discoveries/{id} document.
type jobDoc struct {
	ID             string     `json:"id"`
	Lake           string     `json:"lake"`
	Base           string     `json:"base"`
	Label          string     `json:"label"`
	Model          string     `json:"model,omitempty"`
	State          string     `json:"state"`
	Error          string     `json:"error,omitempty"`
	TraceID        string     `json:"trace_id,omitempty"`
	Run            string     `json:"run"`
	SubmittedUnix  int64      `json:"submitted_unix_ms"`
	StartedUnixMS  int64      `json:"started_unix_ms,omitempty"`
	FinishedUnixMS int64      `json:"finished_unix_ms,omitempty"`
	Result         *resultDoc `json:"result,omitempty"`
}

// doc renders the job's current state.
func (j *job) doc() jobDoc {
	j.mu.Lock()
	defer j.mu.Unlock()
	d := jobDoc{
		ID:            j.id,
		Lake:          j.lakeID,
		Base:          j.req.Base,
		Label:         j.req.Label,
		Model:         j.req.Model,
		State:         j.state,
		Error:         j.err,
		TraceID:       j.traceID,
		Run:           "/runs/" + j.id,
		SubmittedUnix: j.submitted.UnixMilli(),
	}
	if !j.started.IsZero() {
		d.StartedUnixMS = j.started.UnixMilli()
	}
	if !j.finished.IsZero() {
		d.FinishedUnixMS = j.finished.UnixMilli()
	}
	d.Result = j.result
	return d
}

func (s *Service) jobByID(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Service) handleJobList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobOrder))
	for _, id := range s.jobOrder {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	docs := make([]jobDoc, 0, len(jobs))
	for _, j := range jobs {
		docs = append(docs, j.doc())
	}
	writeJSON(w, http.StatusOK, map[string]any{"discoveries": docs})
}

func (s *Service) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.doc())
}

func (s *Service) handleJobManifest(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
		return
	}
	j.mu.Lock()
	m := j.manifest
	j.mu.Unlock()
	if m == nil {
		writeError(w, http.StatusConflict, "job has no result yet")
		return
	}
	writeJSON(w, http.StatusOK, m)
}

func (s *Service) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
		return
	}
	j.mu.Lock()
	terminal := j.state == StateDone || j.state == StateFailed || j.state == StateCancelled
	if !terminal {
		j.cancelRequested = true
	}
	j.mu.Unlock()
	if terminal {
		writeJSON(w, http.StatusConflict, j.doc())
		return
	}
	j.cancel()
	s.log.Info("discovery cancel requested", "id", j.id)
	writeJSON(w, http.StatusAccepted, j.doc())
}

// writeJSON writes v as indented JSON with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError writes a JSON error body with the given status.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// Request-body caps, answered 413 when exceeded: maxBulkBodyBytes for
// table upserts, the one body that carries bulk data, and maxBodyBytes
// for every other JSON body.
const (
	maxBodyBytes     = 1 << 20
	maxBulkBodyBytes = 64 << 20
)

// readBody reads r's body, at most limit bytes. On failure it answers
// 413 (body over the limit) or 400 and returns ok false.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) (body []byte, ok bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", limit))
	case err != nil:
		writeError(w, http.StatusBadRequest, "read body: "+err.Error())
	default:
		return body, true
	}
	return nil, false
}

// decodeSubmit decodes a POST /v1/discoveries body with unknown fields
// disallowed and checks its required fields. On failure it answers 400
// and returns false. Only the client-facing submit body is strict:
// cluster messages stay additive-only (DESIGN §12).
func decodeSubmit(w http.ResponseWriter, body []byte) (submitRequest, bool) {
	var req submitRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil && len(bytes.TrimSpace(body[dec.InputOffset():])) > 0 {
		err = errors.New("data after the top-level value")
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return req, false
	}
	if req.Lake == "" || req.Base == "" || req.Label == "" {
		writeError(w, http.StatusBadRequest, "lake, base and label are required")
		return req, false
	}
	return req, true
}

// decodeBody reads r's JSON body, at most limit bytes, into v. On
// failure it answers 413 or 400 and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	body, ok := readBody(w, r, limit)
	if !ok {
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return false
	}
	return true
}
