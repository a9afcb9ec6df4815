package serve

// Cluster observability federation: the coordinator-side surfaces that
// merge per-node telemetry into one operator view. Workers stay plain
// single-node services; the coordinator pulls their telemetry
// snapshots during Sweep (metrics federation), fans out per-trace span
// fetches on demand (cross-node trace assembly), and keeps the cluster
// event journal. Everything here is read-only over state the
// coordinator already maintains.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"

	"autofeat/internal/obsrv"
	"autofeat/internal/telemetry"
)

// pullTelemetry fetches each alive worker's telemetry snapshot
// (GET /cluster/v1/telemetry) and retains the latest per worker; the
// federated /v1/cluster/metrics endpoint renders these without
// touching the workers on the scrape path. Snapshots of workers that
// later die are retained for postmortem reading. A refused reply counts
// in cluster.telemetry_errors and leaves the worker's previous snapshot
// in place.
func (c *Coordinator) pullTelemetry(ctx context.Context) {
	mx := c.cfg.Collector.Meter()
	for _, w := range c.alive() {
		rep, err := c.call(ctx, w.Addr, http.MethodGet, "/cluster/v1/telemetry", nil)
		if err != nil {
			mx.Inc(telemetry.CtrClusterTelemetryErrors)
			c.log.Warn("cluster telemetry pull failed", "worker", w.ID, "error", err)
			continue
		}
		snap, err := decodeTelemetry(rep.status, rep.body)
		if err != nil {
			mx.Inc(telemetry.CtrClusterTelemetryErrors)
			c.log.Warn("cluster telemetry pull rejected", "worker", w.ID, "status", rep.status, "error", err)
			continue
		}
		mx.Inc(telemetry.CtrClusterTelemetryPulls)
		c.snapMu.Lock()
		c.workerSnaps[w.ID] = snap
		c.snapMu.Unlock()
	}
}

// decodeTelemetry reads one worker's telemetry reply and refuses it
// unless it is a 200 telemetryMsg of this protocol version carrying a
// snapshot whose every histogram renders as a valid Prometheus
// exposition.
func decodeTelemetry(status int, body []byte) (*telemetry.Snapshot, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d", status)
	}
	var msg telemetryMsg
	if err := json.Unmarshal(body, &msg); err != nil {
		return nil, err
	}
	if err := CheckProto(msg.Proto); err != nil {
		return nil, err
	}
	if msg.Snapshot == nil {
		return nil, errors.New("no snapshot")
	}
	for name, h := range msg.Snapshot.Histograms {
		if err := checkHistogram(h); err != nil {
			return nil, fmt.Errorf("histogram %s: %w", name, err)
		}
	}
	return msg.Snapshot, nil
}

// checkHistogram holds a histogram to what its cumulative buckets need:
// one count per bound plus the overflow bucket, bounds strictly
// ascending with no NaN, and counts that are not negative and sum to
// Count. A histogram breaking any of these would render buckets that go
// down or do not end at its _count.
func checkHistogram(h telemetry.HistogramSnapshot) error {
	if len(h.Counts) != len(h.Bounds)+1 {
		return fmt.Errorf("%d counts for %d bounds", len(h.Counts), len(h.Bounds))
	}
	for i, b := range h.Bounds {
		if math.IsNaN(b) || (i > 0 && b <= h.Bounds[i-1]) {
			return fmt.Errorf("bound %d (%g) is NaN or not above the one before", i, b)
		}
	}
	if h.Count < 0 {
		return fmt.Errorf("negative count %d", h.Count)
	}
	var sum int64
	for i, n := range h.Counts {
		if n < 0 || n > h.Count-sum {
			return fmt.Errorf("bucket %d count %d is negative or takes the sum past count %d", i, n, h.Count)
		}
		sum += n
	}
	if sum != h.Count {
		return fmt.Errorf("bucket counts sum to %d, not count %d", sum, h.Count)
	}
	return nil
}

// nodeSnapshots assembles the federated rendering input: the
// coordinator's own live snapshot first, then every pulled worker
// snapshot in sorted node order.
func (c *Coordinator) nodeSnapshots() []obsrv.NodeSnapshot {
	out := []obsrv.NodeSnapshot{{Node: coordinatorNode, Snap: c.cfg.Collector.Snapshot()}}
	c.snapMu.Lock()
	ids := make([]string, 0, len(c.workerSnaps))
	for id := range c.workerSnaps {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		out = append(out, obsrv.NodeSnapshot{Node: id, Snap: c.workerSnaps[id]})
	}
	c.snapMu.Unlock()
	return out
}

// handleClusterMetrics serves the merged cluster registry as Prometheus
// text, one node label per series — a single scrape of the coordinator
// covers every node's counters, gauges and histograms.
func (c *Coordinator) handleClusterMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obsrv.WritePrometheusNodes(w, c.nodeSnapshots())
}

// clusterEventsDoc is the GET /v1/cluster/events response body.
type clusterEventsDoc struct {
	Proto string `json:"proto"`
	// Total counts every event ever recorded; Total - len(Events) have
	// been evicted from the ring.
	Total  int64             `json:"total"`
	Events []telemetry.Event `json:"events"`
}

// handleClusterEvents serves the cluster event journal, oldest first.
func (c *Coordinator) handleClusterEvents(w http.ResponseWriter, _ *http.Request) {
	events := c.events.Events()
	if events == nil {
		events = []telemetry.Event{}
	}
	writeJSON(w, http.StatusOK, clusterEventsDoc{Proto: ProtoVersion, Total: c.events.Total(), Events: events})
}

// clusterStoreDoc is the job-store summary inside the status document.
type clusterStoreDoc struct {
	Jobs      int            `json:"jobs"`
	ByState   map[string]int `json:"by_state"`
	Version   int64          `json:"version"`
	Retention int            `json:"retention,omitempty"`
	Evicted   int64          `json:"evicted,omitempty"`
}

// clusterQueueDoc is the cluster-level scheduling summary inside the
// status document: store-side queue depth plus the workers' aggregate
// occupancy from their last heartbeats.
type clusterQueueDoc struct {
	Queued     int `json:"queued"`
	Dispatched int `json:"dispatched"`
	// WorkerQueued/WorkerRunning/WorkerSlots aggregate the alive
	// workers' own schedulers.
	WorkerQueued  int `json:"worker_queued"`
	WorkerRunning int `json:"worker_running"`
	WorkerSlots   int `json:"worker_slots"`
}

// clusterStatusDoc is the GET /v1/cluster/status response body: the
// one-call operator view of membership, placement, load and the
// cluster-wide metric rollup.
type clusterStatusDoc struct {
	Proto     string           `json:"proto"`
	Node      string           `json:"node"`
	WorkersUp int              `json:"workers_up"`
	Workers   []workerDoc      `json:"workers"`
	Lakes     []clusterLakeDoc `json:"lakes"`
	Store     clusterStoreDoc  `json:"store"`
	Queue     clusterQueueDoc  `json:"queue"`
	Events    int64            `json:"events_recorded"`
	// Counters and Gauges are the cluster-wide rollup: every node's
	// registry merged via Snapshot.Merge (counters and gauges summed).
	Counters map[string]int64   `json:"counters"`
	Gauges   map[string]float64 `json:"gauges"`
}

// handleClusterStatus assembles the federated status document.
func (c *Coordinator) handleClusterStatus(w http.ResponseWriter, _ *http.Request) {
	doc := clusterStatusDoc{Proto: ProtoVersion, Node: coordinatorNode, Events: c.events.Total()}
	doc.Workers = c.workerDocs()
	for _, wd := range doc.Workers {
		if !wd.Alive {
			continue
		}
		doc.WorkersUp++
		doc.Queue.WorkerQueued += wd.Queued
		doc.Queue.WorkerRunning += wd.Running
		doc.Queue.WorkerSlots += wd.Slots
	}
	doc.Lakes = c.lakeDocs()
	byState := c.store.StateCounts()
	doc.Store = clusterStoreDoc{
		Jobs: c.store.Len(), ByState: byState, Version: c.store.Version(),
		Retention: c.cfg.StoreRetention, Evicted: c.store.Evicted(),
	}
	doc.Queue.Queued = byState[ClusterQueued]
	doc.Queue.Dispatched = byState[ClusterDispatched]
	merged := &telemetry.Snapshot{}
	for _, n := range c.nodeSnapshots() {
		merged.Merge(n.Snap)
	}
	doc.Counters, doc.Gauges = merged.Counters, merged.Gauges
	writeJSON(w, http.StatusOK, doc)
}

// workerDocs renders the membership table (sorted by worker ID) — the
// shared body of GET /cluster/v1/workers and the status surface.
func (c *Coordinator) workerDocs() []workerDoc {
	now := c.clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := append([]string(nil), c.order...)
	sort.Strings(ids)
	docs := make([]workerDoc, 0, len(ids))
	for _, id := range ids {
		ws := c.workers[id]
		docs = append(docs, workerDoc{
			ID: ws.ID, Addr: ws.Addr, Alive: ws.alive, Draining: ws.Draining,
			Lakes:  append([]string(nil), ws.Lakes...),
			Queued: ws.Queued, Running: ws.Running, Slots: ws.Slots,
			LastSeenUnixMS:   ws.lastSeen.UnixMilli(),
			SecondsSinceSeen: now.Sub(ws.lastSeen).Seconds(),
		})
	}
	return docs
}

// federatedTraceDoc is the coordinator's GET /v1/traces/{id} response
// body: the obsrv traceDoc shape plus the node list the spans came
// from.
type federatedTraceDoc struct {
	TraceID string                `json:"trace_id"`
	Spans   int                   `json:"spans"`
	Nodes   []string              `json:"nodes"`
	Roots   []*telemetry.SpanNode `json:"roots"`
}

// handleTraceList serves the coordinator-local trace summaries (the
// relay/dispatch spans it retains). Workers keep their own /v1/traces
// listing; federation happens per trace ID, where the coordinator
// knows exactly which workers to ask.
func (c *Coordinator) handleTraceList(w http.ResponseWriter, _ *http.Request) {
	sums := c.cfg.Traces.Summaries()
	if sums == nil {
		sums = []telemetry.TraceSummary{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"traces": sums})
}

// handleFederatedTrace assembles one cross-node trace: the
// coordinator's own relay/dispatch spans plus every alive worker's
// spans for the trace ID, merged through BuildSpanTree into a single
// forest (one tree when parentage is intact). Workers without the
// trace answer 404 and are skipped; unreachable workers count as proxy
// errors but do not fail the assembly.
func (c *Coordinator) handleFederatedTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	mx := c.cfg.Collector.Meter()
	spans := c.cfg.Traces.Spans(id)
	var nodes []string
	if len(spans) > 0 {
		nodes = append(nodes, coordinatorNode)
	}
	for _, wk := range c.alive() {
		mx.Inc(telemetry.CtrClusterProxied)
		rep, err := c.call(r.Context(), wk.Addr, http.MethodGet, "/cluster/v1/traces/"+id, nil)
		if err != nil {
			mx.Inc(telemetry.CtrClusterProxyErrors)
			c.log.Warn("cluster trace fetch failed", "worker", wk.ID, "trace", id, "error", err)
			continue
		}
		if rep.status == http.StatusNotFound {
			continue // worker holds no spans for this trace
		}
		var msg traceSpansMsg
		err = json.Unmarshal(rep.body, &msg)
		if err != nil || rep.status != http.StatusOK || CheckProto(msg.Proto) != nil {
			c.log.Warn("cluster trace fetch rejected", "worker", wk.ID, "trace", id, "status", rep.status, "error", err)
			continue
		}
		if len(msg.Spans) > 0 {
			spans = append(spans, msg.Spans...)
			nodes = append(nodes, wk.ID)
		}
	}
	if len(spans) == 0 {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown trace %s on any cluster node", id))
		return
	}
	writeJSON(w, http.StatusOK, federatedTraceDoc{
		TraceID: id, Spans: len(spans), Nodes: nodes,
		Roots: telemetry.BuildSpanTree(spans),
	})
}
