package serve

// Worker-side cluster agent. A worker is an ordinary single-node
// Service plus this Agent, which announces the worker to the
// coordinator with periodic heartbeats, the only way a worker joins,
// and serves the worker's telemetry and trace spans to the
// coordinator's federated views.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
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
	// Coordinator is the base URL of the coordinator the worker
	// heartbeats to, which is how it joins the cluster.
	Coordinator string
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

// HeartbeatPeriod is how often a worker's agent announces itself to the
// coordinator. A coordinator's heartbeat timeout must span at least two
// periods, or it declares live workers dead between their beats.
const HeartbeatPeriod = 2 * time.Second

// Agent is the cluster-facing side of one worker.
type Agent struct {
	cfg    AgentConfig
	svc    *Service
	log    *slog.Logger
	client *http.Client
}

// NewAgent builds the cluster agent for a worker service. Its heartbeats
// go through a 10s-timeout client.
func NewAgent(cfg AgentConfig, svc *Service) *Agent {
	return &Agent{cfg: cfg, svc: svc, log: telemetry.OrNop(cfg.Logger), client: &http.Client{Timeout: 10 * time.Second}}
}

// Mount registers the worker's cluster routes alongside the service's
// own /v1 routes.
func (a *Agent) Mount(srv *obsrv.Server) {
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

// Run sends a heartbeat to the coordinator every HeartbeatPeriod until
// ctx is cancelled.
func (a *Agent) Run(ctx context.Context) {
	t := time.NewTicker(HeartbeatPeriod)
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
