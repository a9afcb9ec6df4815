package serve

// Worker-side cluster agent. A worker is an ordinary single-node
// Service plus this Agent, which (a) announces the worker to the
// coordinator with periodic heartbeats, (b) serves the worker's
// identity document for static-peer seeding, and (c) stores the
// coordinator's replicated job-store snapshots so the cluster queue
// survives losing any single node's disk.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"autofeat/internal/obsrv"
	"autofeat/internal/telemetry"
)

// AgentConfig wires a worker's cluster agent.
type AgentConfig struct {
	// ID is the worker's stable identity (rendezvous hashing keys on
	// it); Addr is the base URL other nodes dial to reach this worker.
	ID   string
	Addr string
	// Coordinator is the coordinator's base URL. "" disables the
	// heartbeat loop (useful when the coordinator seeds statically and
	// tests drive heartbeats by hand).
	Coordinator string
	// HeartbeatInterval is the announce period. 0 defaults to 2s.
	HeartbeatInterval time.Duration
	// ReplicaPath stores received job-store snapshots; "" keeps the
	// latest snapshot in memory only.
	ReplicaPath string
	// Collector receives cluster.* metrics; Logger the lifecycle
	// records. Both may be nil.
	Collector *telemetry.Collector
	Logger    *slog.Logger
	// Traces, when non-nil, serves this worker's retained spans at GET
	// /cluster/v1/traces/{id} so the coordinator can assemble
	// cross-node traces. Attach the same store the worker's obsrv
	// server renders.
	Traces *telemetry.TraceStore
}

// Agent is the cluster-facing side of one worker.
type Agent struct {
	cfg    AgentConfig
	svc    *Service
	log    *slog.Logger
	client *http.Client

	mu      sync.Mutex
	replica []byte
}

// NewAgent builds the cluster agent for a worker service. Its heartbeats
// go through a 10s-timeout client.
func NewAgent(cfg AgentConfig, svc *Service) *Agent {
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 2 * time.Second
	}
	return &Agent{cfg: cfg, svc: svc, log: telemetry.OrNop(cfg.Logger), client: &http.Client{Timeout: 10 * time.Second}}
}

// Mount registers the worker's cluster control-plane routes alongside
// the service's own /v1 routes.
func (a *Agent) Mount(srv *obsrv.Server) {
	srv.Handle("GET /cluster/v1/info", http.HandlerFunc(a.handleInfo))
	srv.Handle("POST /cluster/v1/jobstore", http.HandlerFunc(a.handleReplicaPut))
	srv.Handle("GET /cluster/v1/jobstore", http.HandlerFunc(a.handleReplicaGet))
	srv.Handle("GET /cluster/v1/telemetry", http.HandlerFunc(a.handleTelemetry))
	srv.Handle("GET /cluster/v1/traces/{id}", http.HandlerFunc(a.handleTraceSpans))
}

// status assembles the worker's current heartbeat document.
func (a *Agent) status() heartbeatMsg {
	queued, running, slots := a.svc.Stats()
	return heartbeatMsg{
		Proto:    ProtoVersion,
		ID:       a.cfg.ID,
		Addr:     a.cfg.Addr,
		Lakes:    a.svc.LakeIDs(),
		Queued:   queued,
		Running:  running,
		Slots:    slots,
		Draining: a.svc.Draining(),
	}
}

// Run sends heartbeats to the coordinator until ctx is cancelled. It
// returns immediately when no coordinator is configured.
func (a *Agent) Run(ctx context.Context) {
	if a.cfg.Coordinator == "" {
		return
	}
	t := time.NewTicker(a.cfg.HeartbeatInterval)
	defer t.Stop()
	a.Heartbeat(ctx)
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			a.Heartbeat(ctx)
		}
	}
}

// Heartbeat sends one announce to the coordinator. Failures are logged
// and returned but not fatal — the next tick retries.
func (a *Agent) Heartbeat(ctx context.Context) error {
	body, _ := json.Marshal(a.status())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, a.cfg.Coordinator+"/cluster/v1/heartbeat", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.client.Do(req)
	if err != nil {
		a.log.Warn("cluster heartbeat failed", "coordinator", a.cfg.Coordinator, "error", err)
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		err := fmt.Errorf("serve: heartbeat: coordinator status %d: %s", resp.StatusCode, b)
		a.log.Warn("cluster heartbeat rejected", "error", err)
		return err
	}
	a.cfg.Collector.Meter().Inc(telemetry.CtrClusterHeartbeatsSent)
	return nil
}

// handleInfo serves the worker's identity document (GET
// /cluster/v1/info) — the probe target for static-peer seeding.
func (a *Agent) handleInfo(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, a.status())
}

// handleReplicaPut stores one replicated job-store snapshot after
// validating its wire-protocol version.
func (a *Agent) handleReplicaPut(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, maxBulkBodyBytes)
	if !ok {
		return
	}
	var probe struct {
		Proto string `json:"proto"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	if err := CheckProto(probe.Proto); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	a.mu.Lock()
	a.replica = body
	a.mu.Unlock()
	if a.cfg.ReplicaPath != "" {
		if err := atomicWriteFile(a.cfg.ReplicaPath, body); err != nil {
			a.log.Warn("cluster replica persist failed", "path", a.cfg.ReplicaPath, "error", err)
			writeError(w, http.StatusInternalServerError, "persist replica: "+err.Error())
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"proto": ProtoVersion, "ok": true, "bytes": len(body)})
}

// handleReplicaGet serves the last replicated snapshot, or 404 if none
// arrived yet.
func (a *Agent) handleReplicaGet(w http.ResponseWriter, _ *http.Request) {
	a.mu.Lock()
	snap := a.replica
	a.mu.Unlock()
	if snap == nil {
		writeError(w, http.StatusNotFound, "no job-store replica received yet")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(snap)
}

// telemetryMsg is the GET /cluster/v1/telemetry response body: one
// worker's metric registry, stamped with the wire-protocol version and
// the worker's identity so the coordinator can label the merged series.
type telemetryMsg struct {
	Proto    string              `json:"proto"`
	Node     string              `json:"node"`
	Snapshot *telemetry.Snapshot `json:"snapshot"`
}

// handleTelemetry serves the worker's current metrics snapshot for
// coordinator-side metrics federation. Traces travel per trace ID over
// /cluster/v1/traces/{id}, not in bulk on every sweep.
func (a *Agent) handleTelemetry(w http.ResponseWriter, _ *http.Request) {
	snap := a.cfg.Collector.Snapshot()
	writeJSON(w, http.StatusOK, telemetryMsg{Proto: ProtoVersion, Node: a.cfg.ID, Snapshot: snap})
}

// traceSpansMsg is the GET /cluster/v1/traces/{id} response body: the
// worker's retained spans for one trace, flat (the coordinator builds
// the merged tree).
type traceSpansMsg struct {
	Proto   string                 `json:"proto"`
	Node    string                 `json:"node"`
	TraceID string                 `json:"trace_id"`
	Spans   []telemetry.SpanRecord `json:"spans"`
}

// handleTraceSpans serves this worker's spans for one trace ID — the
// fan-out target of the coordinator's cross-node trace assembly. 404
// when the worker holds no spans for the trace (or has no trace store).
func (a *Agent) handleTraceSpans(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	spans := a.cfg.Traces.Spans(id)
	if spans == nil {
		writeError(w, http.StatusNotFound, "unknown trace "+id)
		return
	}
	writeJSON(w, http.StatusOK, traceSpansMsg{Proto: ProtoVersion, Node: a.cfg.ID, TraceID: id, Spans: spans})
}

// Replica returns the latest stored snapshot (nil if none), for tests
// and recovery tooling.
func (a *Agent) Replica() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.replica == nil {
		return nil
	}
	out := make([]byte, len(a.replica))
	copy(out, a.replica)
	return out
}
