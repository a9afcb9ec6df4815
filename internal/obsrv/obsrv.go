// Package obsrv is the live introspection layer of the AutoFeat
// reproduction: an embeddable HTTP server that exposes the state of the
// online pipeline while it runs, instead of only after it finishes (the
// job of the -metrics-out and -trace-out files).
//
// Endpoints:
//
//   - /metrics — the telemetry registry in Prometheus text exposition
//     format (counters, gauges, fixed-bucket duration histograms),
//     rendered zero-dependency by WritePrometheus.
//   - /healthz — liveness: uptime and the number of registered runs.
//   - /runs — the registered run IDs with their phase.
//   - /runs/{id} — the live RunStatus of one run: BFS depth, frontier
//     size, joins enumerated/evaluated/pruned by reason, budget
//     consumption and worker-pool occupancy, fed by the RunProgress
//     tracker threaded through internal/core.
//   - /v1/traces and /v1/traces/{id} — the bounded in-memory trace
//     store (when Config.Traces is set): per-trace summaries and the
//     full span tree of one trace.
//   - /debug/flight — the flight-recorder ring buffer of recent spans
//     (when Config.Flight is set), for after-the-fact debugging.
//   - /debug/pprof/... — the standard net/http/pprof handlers (optional),
//     sharing the same mux and the same explicitly-configured
//     http.Server (with a request-header timeout, unlike the bare
//     http.ListenAndServe it replaces).
//
// The server is wired into cmd/autofeat and cmd/experiments behind the
// -serve flag; everything is disabled by default and costs nothing when
// off (RunProgress and the telemetry collector are both nil-safe).
package obsrv

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"autofeat/internal/telemetry"
)

// Config configures a Server.
type Config struct {
	// Addr is the listen address for ListenAndServe (e.g. "localhost:6060").
	Addr string
	// Collector is the telemetry registry /metrics renders. Nil serves an
	// empty (but valid) exposition.
	Collector *telemetry.Collector
	// EnablePprof mounts the net/http/pprof handlers under /debug/pprof/.
	EnablePprof bool
	// Traces, when non-nil, mounts GET /v1/traces and /v1/traces/{id}
	// over the bounded trace store (attach it to the Collector's tracer
	// with Collector.ObserveSpans so finished spans flow in).
	Traces *telemetry.TraceStore
	// Flight, when non-nil, mounts GET /debug/flight over the
	// flight-recorder ring buffer of recent spans.
	Flight *telemetry.FlightRecorder
}

// headerTimeout bounds how long the server waits for request headers
// (slow-loris protection).
const headerTimeout = 5 * time.Second

// Server is the introspection HTTP server: a run registry plus the
// /metrics, /healthz, /runs and optional pprof endpoints on one mux.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	srv   *http.Server
	start time.Time

	mu    sync.Mutex
	runs  map[string]*RunProgress
	order []string
}

// NewServer builds a server; call ListenAndServe to serve cfg.Addr, or
// mount Handler on an existing listener (tests use httptest).
func NewServer(cfg Config) *Server {
	s := &Server{
		cfg:   cfg,
		mux:   http.NewServeMux(),
		start: time.Now(),
		runs:  make(map[string]*RunProgress),
	}
	s.Handle("GET /healthz", http.HandlerFunc(s.handleHealthz))
	s.Handle("GET /metrics", http.HandlerFunc(s.handleMetrics))
	s.Handle("GET /runs", http.HandlerFunc(s.handleRuns))
	s.Handle("GET /runs/{id}", http.HandlerFunc(s.handleRun))
	if cfg.Traces != nil {
		s.Handle("GET /v1/traces", http.HandlerFunc(s.handleTraces))
		s.Handle("GET /v1/traces/{id}", http.HandlerFunc(s.handleTrace))
	}
	if cfg.Flight != nil {
		s.Handle("GET /debug/flight", http.HandlerFunc(s.handleFlight))
	}
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.srv = &http.Server{
		Addr:              cfg.Addr,
		Handler:           s.mux,
		ReadHeaderTimeout: headerTimeout,
	}
	return s
}

// Register adds (or replaces) a run tracker under its ID, making it
// visible at /runs/{id}. Safe for concurrent use.
func (s *Server) Register(p *RunProgress) {
	if s == nil || p == nil || p.ID() == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.runs[p.ID()]; !ok {
		s.order = append(s.order, p.ID())
	}
	s.runs[p.ID()] = p
}

// Run returns the registered tracker for id, or nil.
func (s *Server) Run(id string) *RunProgress {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs[id]
}

// Handler returns the server's mux for mounting on an external listener.
func (s *Server) Handler() http.Handler { return s.mux }

// Handle registers an additional handler on the server's mux, letting
// other subsystems (the discovery service in internal/serve) share the
// introspection listener. pattern follows Go 1.22 mux syntax, method
// prefixes included. Every handler mounted this way is wrapped in the
// instrumentation middleware: traceparent ingestion/emission plus
// per-route request/error counters and a latency histogram (the pprof
// handlers are the one exception, mounted bare in NewServer).
func (s *Server) Handle(pattern string, h http.Handler) {
	s.mux.Handle(pattern, s.instrument(pattern, h))
}

// ListenAndServe serves cfg.Addr on the explicitly-configured
// http.Server until Close; it has the blocking semantics of
// http.Server.ListenAndServe.
func (s *Server) ListenAndServe() error { return s.srv.ListenAndServe() }

// Close immediately closes the underlying http.Server.
func (s *Server) Close() error { return s.srv.Close() }

// Shutdown gracefully shuts the underlying http.Server down: it stops
// accepting new connections and waits for in-flight requests until ctx
// expires. Pair it with serve.Service.Drain for a clean SIGTERM path.
func (s *Server) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }

// healthDoc is the /healthz response body.
type healthDoc struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Runs          int     `json:"runs"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	n := len(s.runs)
	s.mu.Unlock()
	writeJSON(w, healthDoc{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Runs:          n,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap := s.cfg.Collector.Snapshot()
	_ = WritePrometheus(w, snap)
}

// runsDoc is the /runs response body: one brief entry per registered run,
// in registration order.
type runsDoc struct {
	Runs []runBrief `json:"runs"`
}

// runBrief is the /runs list entry for one run.
type runBrief struct {
	ID      string `json:"id"`
	Phase   string `json:"phase"`
	Partial bool   `json:"partial"`
	Done    bool   `json:"done"`
}

func (s *Server) handleRuns(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	trackers := make([]*RunProgress, 0, len(s.order))
	for _, id := range s.order {
		trackers = append(trackers, s.runs[id])
	}
	s.mu.Unlock()
	doc := runsDoc{Runs: make([]runBrief, 0, len(trackers))}
	for _, p := range trackers {
		st := p.Snapshot()
		doc.Runs = append(doc.Runs, runBrief{ID: st.ID, Phase: st.Phase, Partial: st.Partial, Done: st.Done})
	}
	writeJSON(w, doc)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	p := s.Run(r.PathValue("id"))
	if p == nil {
		writeError(w, http.StatusNotFound, "unknown run "+r.PathValue("id"))
		return
	}
	writeJSON(w, p.Snapshot())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError answers with the machine-readable {"error": ...} body the
// rest of the service uses, instead of http.NotFound's plain text.
func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
