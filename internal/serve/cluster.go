package serve

// Cluster coordinator: the scale-out half of the discovery service.
// One coordinator process owns routing and admission; N worker
// processes (plain Services with a cluster Agent mounted) own the
// resident lake sessions and run the jobs. The pieces:
//
//   - membership: workers announce themselves with periodic heartbeats
//     (POST /cluster/v1/heartbeat); a worker silent past the timeout is
//     declared dead, one that reports again rejoins.
//   - placement: lakes are assigned to workers by rendezvous hashing
//     over (worker id, lake id) — every node computes the same owner
//     from the same membership view, no coordination state needed.
//   - routing: /v1/lakes and /v1/discoveries keep their single-node
//     contract; the coordinator forwards each request to the owner of
//     the lake it names, propagating the W3C traceparent so span trees
//     cross the hop.
//   - durability: every admitted job lands in the coordinator's JSON
//     job store (jobstore.go) before dispatch; when a worker dies, its
//     queued and unacknowledged-dispatched jobs are re-dispatched to
//     the lake's next owner with bounded backoff. Deterministic
//     rankings make the re-run safe: the result is bit-identical.
//   - admission: per-tenant in-flight quotas (X-Tenant header) layered
//     on top of each worker's own QueueDepth 429 admission control.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"autofeat/internal/obsrv"
	"autofeat/internal/telemetry"
)

// heartbeatMsg is the worker -> coordinator heartbeat body (POST
// /cluster/v1/heartbeat).
type heartbeatMsg struct {
	// Proto is the wire-protocol version (ProtoVersion).
	Proto string `json:"proto"`
	// ID is the worker's stable identity; Addr its advertised base URL
	// (scheme://host:port) the coordinator dials back.
	ID   string `json:"id"`
	Addr string `json:"addr"`
	// Lakes lists the lake ids the worker currently holds resident.
	Lakes []string `json:"lakes"`
	// Queued, Running and Slots describe the worker's scheduler load.
	Queued  int `json:"queued"`
	Running int `json:"running"`
	Slots   int `json:"slots"`
	// Draining marks a worker that stopped admitting new jobs; it stays
	// a member but is skipped for new placements.
	Draining bool `json:"draining,omitempty"`
}

// workerState is the coordinator's view of one worker.
type workerState struct {
	heartbeatMsg
	lastSeen time.Time
	alive    bool
}

// workerDoc is one entry of the GET /cluster/v1/workers response.
type workerDoc struct {
	ID               string   `json:"id"`
	Addr             string   `json:"addr"`
	Alive            bool     `json:"alive"`
	Draining         bool     `json:"draining,omitempty"`
	Lakes            []string `json:"lakes"`
	Queued           int      `json:"queued"`
	Running          int      `json:"running"`
	Slots            int      `json:"slots"`
	LastSeenUnixMS   int64    `json:"last_seen_unix_ms"`
	SecondsSinceSeen float64  `json:"seconds_since_seen"`
}

// clusterLakeDoc is one entry of the coordinator's GET /v1/lakes
// response: the stored registration plus its current placement.
type clusterLakeDoc struct {
	StoredLake
	Worker string `json:"worker,omitempty"`
	Tables int    `json:"tables,omitempty"`
}

// clusterJobDoc is the coordinator's job document (GET
// /v1/discoveries/{id}): the cluster-level routing state wrapping the
// worker's own jobDoc once one exists.
type clusterJobDoc struct {
	ID              string          `json:"id"`
	Lake            string          `json:"lake"`
	Tenant          string          `json:"tenant,omitempty"`
	State           string          `json:"state"`
	Worker          string          `json:"worker,omitempty"`
	WorkerJob       string          `json:"worker_job,omitempty"`
	Attempts        int             `json:"attempts"`
	Rerouted        int             `json:"rerouted"`
	Error           string          `json:"error,omitempty"`
	SubmittedUnixMS int64           `json:"submitted_unix_ms"`
	Job             json.RawMessage `json:"job,omitempty"`
}

// ClusterConfig sizes and wires a Coordinator.
type ClusterConfig struct {
	// HeartbeatTimeout is the silence after which a worker is declared
	// dead and its queued jobs reroute. 0 defaults to 10s. The
	// background membership/dispatch sweep runs four times per timeout.
	HeartbeatTimeout time.Duration
	// TenantQuota bounds each tenant's in-flight (queued + dispatched)
	// jobs; submissions beyond it get 429. 0 = unlimited.
	TenantQuota int
	// StoreRetention caps how many terminal job documents the job store
	// retains (oldest evicted FIFO, surfaced as
	// cluster.store_jobs_evicted). 0 = unbounded.
	StoreRetention int
	// Collector receives the cluster.* metrics; Logger the lifecycle
	// records. Both may be nil.
	Collector *telemetry.Collector
	Logger    *slog.Logger
	// Traces, when non-nil, is the coordinator's own span store: it
	// holds the relay and dispatch spans that GET /v1/traces/{id}
	// merges with worker-held spans into one cross-node tree. Attach it
	// to the Collector with ObserveSpans; leave the obsrv server's
	// Traces nil so the coordinator's federated routes own the
	// /v1/traces patterns.
	Traces *telemetry.TraceStore

	// clock overrides time.Now in tests.
	clock func() time.Time
	// retryBackoff overrides defaultRetryBackoff in tests.
	retryBackoff time.Duration
}

// defaultRetryBackoff is the base delay before re-dispatching a job
// whose dispatch failed or was rejected; it doubles per attempt and is
// capped at 8x (bounded backoff).
const defaultRetryBackoff = 250 * time.Millisecond

// coordinatorNode labels the coordinator's own series in the federated
// metrics exposition, its status document and its trace fan-out.
const coordinatorNode = "coordinator"

// Coordinator is the cluster's routing node: membership table, job
// store, and the proxy handlers that keep the single-node REST contract
// over many workers.
type Coordinator struct {
	cfg    ClusterConfig
	log    *slog.Logger
	client *http.Client
	store  *JobStore
	clock  func() time.Time
	events *telemetry.EventLog

	mu      sync.Mutex
	workers map[string]*workerState
	order   []string

	snapMu      sync.Mutex
	workerSnaps map[string]*telemetry.Snapshot // last federated pull, by worker ID

	draining    atomic.Bool
	lastEvicted atomic.Int64 // store evictions already counted
}

// NewCoordinator builds a Coordinator around the given job store. Its
// event journal, served at GET /v1/cluster/events, is a
// DefaultEventLogSize ring mirroring to cfg.Logger; all its
// coordinator -> worker HTTP goes through one 30s-timeout client.
func NewCoordinator(cfg ClusterConfig, store *JobStore) *Coordinator {
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 10 * time.Second
	}
	if cfg.retryBackoff <= 0 {
		cfg.retryBackoff = defaultRetryBackoff
	}
	if cfg.clock == nil {
		cfg.clock = time.Now
	}
	events := telemetry.NewEventLog(0, cfg.Logger)
	events.SetClock(cfg.clock)
	if cfg.StoreRetention > 0 {
		store.SetRetention(cfg.StoreRetention)
	}
	return &Coordinator{
		cfg:         cfg,
		log:         telemetry.OrNop(cfg.Logger),
		client:      &http.Client{Timeout: 30 * time.Second},
		store:       store,
		clock:       cfg.clock,
		events:      events,
		workers:     map[string]*workerState{},
		workerSnaps: map[string]*telemetry.Snapshot{},
	}
}

// Events returns the coordinator's cluster event journal.
func (c *Coordinator) Events() *telemetry.EventLog { return c.events }

// Store returns the coordinator's job store.
func (c *Coordinator) Store() *JobStore { return c.store }

// Mount registers the coordinator's routes — the single-node /v1 API,
// now routed, plus the cluster control plane — on the introspection
// server's mux.
func (c *Coordinator) Mount(srv *obsrv.Server) {
	srv.Handle("POST /v1/lakes", http.HandlerFunc(c.handleLakeCreate))
	srv.Handle("GET /v1/lakes", http.HandlerFunc(c.handleLakeList))
	srv.Handle("POST /v1/lakes/{id}/tables", http.HandlerFunc(c.handleLakeProxy))
	srv.Handle("DELETE /v1/lakes/{id}/tables/{table}", http.HandlerFunc(c.handleLakeProxy))
	srv.Handle("POST /v1/discoveries", http.HandlerFunc(c.handleSubmit))
	srv.Handle("GET /v1/discoveries", http.HandlerFunc(c.handleJobList))
	srv.Handle("GET /v1/discoveries/{id}", http.HandlerFunc(c.handleJobGet))
	srv.Handle("GET /v1/discoveries/{id}/manifest", http.HandlerFunc(c.handleJobManifest))
	srv.Handle("DELETE /v1/discoveries/{id}", http.HandlerFunc(c.handleJobCancel))
	srv.Handle("POST /cluster/v1/heartbeat", http.HandlerFunc(c.handleHeartbeat))
	srv.Handle("GET /cluster/v1/workers", http.HandlerFunc(c.handleWorkers))
	srv.Handle("GET /cluster/v1/jobs", http.HandlerFunc(c.handleStoreDump))
	srv.Handle("GET /v1/cluster/metrics", http.HandlerFunc(c.handleClusterMetrics))
	srv.Handle("GET /v1/cluster/events", http.HandlerFunc(c.handleClusterEvents))
	srv.Handle("GET /v1/cluster/status", http.HandlerFunc(c.handleClusterStatus))
	srv.Handle("GET /v1/traces", http.HandlerFunc(c.handleTraceList))
	srv.Handle("GET /v1/traces/{id}", http.HandlerFunc(c.handleFederatedTrace))
}

// Run drives the coordinator's background loop — membership sweeps,
// queued-job dispatch, telemetry pulls — until ctx is cancelled.
func (c *Coordinator) Run(ctx context.Context) {
	t := time.NewTicker(c.cfg.HeartbeatTimeout / 4)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.Sweep()
		}
	}
}

// Drain stops admission: new submissions and lake registrations get
// 503 while already-dispatched jobs keep running on their workers. Pair
// it with draining each worker for a whole-cluster drain.
func (c *Coordinator) Drain() { c.draining.Store(true) }

// observeHeartbeat folds one heartbeat into the membership table and
// refreshes the cluster gauges.
func (c *Coordinator) observeHeartbeat(hb heartbeatMsg) {
	now := c.clock()
	c.mu.Lock()
	w, ok := c.workers[hb.ID]
	joined, rejoined := false, false
	if !ok {
		w = &workerState{}
		c.workers[hb.ID] = w
		c.order = append(c.order, hb.ID)
		joined = true
	} else if !w.alive {
		rejoined = true
	}
	w.heartbeatMsg = hb
	w.lastSeen = now
	w.alive = true
	c.mu.Unlock()
	if joined {
		c.events.Record(telemetry.Event{Type: telemetry.EventWorkerJoined, Node: hb.ID, Detail: hb.Addr})
	}
	if rejoined {
		c.events.Record(telemetry.Event{Type: telemetry.EventWorkerRejoined, Node: hb.ID, Detail: hb.Addr})
	}
	c.cfg.Collector.Meter().Inc(telemetry.CtrClusterHeartbeats)
	c.updateGauges()
}

// alive snapshots every alive worker in join order, draining ones
// included: they still hold spans, metrics and running jobs, but
// placement skips them.
func (c *Coordinator) alive() []workerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]workerState, 0, len(c.order))
	for _, id := range c.order {
		if w := c.workers[id]; w.alive {
			out = append(out, *w)
		}
	}
	return out
}

// workerByID returns a copy of the worker's state.
func (c *Coordinator) workerByID(id string) (workerState, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.workers[id]; ok {
		return *w, true
	}
	return workerState{}, false
}

// ownerFor picks the lake's current owner by rendezvous (highest
// random weight) hashing over the placeable workers: each worker's
// score is fmix64 of FNV-1a over (worker id, 0, lake id) and the
// highest score wins, with the lexically smallest id breaking exact
// ties. Every node with the same membership view computes the same
// owner, and removing a worker only moves the lakes that worker owned.
func (c *Coordinator) ownerFor(lakeID string) (workerState, bool) {
	var best workerState
	var bestScore uint64
	found := false
	for _, w := range c.alive() {
		if w.Draining {
			continue
		}
		h := fnv.New64a()
		_, _ = io.WriteString(h, w.ID)
		_, _ = h.Write([]byte{0})
		_, _ = io.WriteString(h, lakeID)
		score := fmix64(h.Sum64())
		if !found || score > bestScore || (score == bestScore && w.ID < best.ID) {
			best, bestScore, found = w, score, true
		}
	}
	return best, found
}

// fmix64 is murmur3's 64-bit finaliser. FNV-1a's last input bytes
// never reach the high bits of its sum, so raw sums would rank workers
// by their id prefix alone and put every lake on one worker; the
// finaliser spreads every input bit over the whole score.
func fmix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// updateGauges refreshes the cluster-level metrics: live workers, store
// size, per-worker lake placement counts, and the store's eviction
// counter.
func (c *Coordinator) updateGauges() {
	mx := c.cfg.Collector.Meter()
	mx.SetGauge(telemetry.GaugeClusterWorkersUp, float64(len(c.alive())))
	mx.SetGauge(telemetry.GaugeClusterStoreJobs, float64(c.store.Len()))
	// Fold the store's cumulative eviction count into the counter (and
	// the journal) exactly once per eviction, even with concurrent
	// callers: only the CAS winner adds the delta.
	if evicted := c.store.Evicted(); evicted > 0 {
		for {
			last := c.lastEvicted.Load()
			if evicted <= last {
				break
			}
			if c.lastEvicted.CompareAndSwap(last, evicted) {
				mx.Add(telemetry.CtrClusterStoreJobsEvicted, evicted-last)
				c.events.Record(telemetry.Event{
					Type:   telemetry.EventJobsEvicted,
					Detail: fmt.Sprintf("%d terminal job docs evicted (retention cap %d)", evicted-last, c.cfg.StoreRetention),
				})
				break
			}
		}
	}
	counts := map[string]int{}
	for _, l := range c.store.Lakes() {
		if owner, ok := c.ownerFor(l.ID); ok {
			counts[owner.ID]++
		}
	}
	c.mu.Lock()
	ids := append([]string(nil), c.order...)
	c.mu.Unlock()
	for _, id := range ids {
		mx.SetGauge(telemetry.GaugeClusterLakesPrefix+id, float64(counts[id]))
	}
}

// maxReplyBytes caps every worker reply the coordinator reads: job,
// manifest and trace documents, telemetry snapshots and relayed client
// answers alike.
const maxReplyBytes = 16 << 20

// reply is one worker answer, read in full.
type reply struct {
	status int
	header http.Header
	body   []byte
}

// call is the one coordinator -> worker exchange: it sends method+path
// with body (nil for none) to the worker at addr, propagating ctx's
// span as a W3C traceparent, and reads the reply, at most
// maxReplyBytes.
func (c *Coordinator) call(ctx context.Context, addr, method, path string, body []byte) (*reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, addr+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if sc, ok := telemetry.SpanContextFrom(ctx); ok {
		req.Header.Set("traceparent", sc.Traceparent())
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxReplyBytes+1))
	if err == nil && len(b) > maxReplyBytes {
		err = fmt.Errorf("serve: %s %s: reply exceeds %d bytes", method, path, maxReplyBytes)
	}
	if err != nil {
		return nil, err
	}
	return &reply{status: resp.StatusCode, header: resp.Header, body: b}, nil
}

// proxy is the one relay for the client routes the coordinator
// forwards: it sends r's method and body (nil for none) to path on the
// worker with the given id and copies the answer back verbatim —
// status, Content-Type, Retry-After, Location and body — so routed
// errors like a worker's 429 keep their machine-readable form. Each
// relayed request counts in cluster.proxied_requests; a worker that is
// not alive, or whose exchange fails, is answered 502 naming it, and a
// failed exchange also counts in cluster.proxy_errors.
func (c *Coordinator) proxy(w http.ResponseWriter, r *http.Request, workerID, path string, body []byte) {
	wk, ok := c.workerByID(workerID)
	if !ok || !wk.alive {
		writeError(w, http.StatusBadGateway, "worker "+workerID+" is not reachable")
		return
	}
	mx := c.cfg.Collector.Meter()
	mx.Inc(telemetry.CtrClusterProxied)
	rep, err := c.call(r.Context(), wk.Addr, r.Method, path, body)
	if err != nil {
		mx.Inc(telemetry.CtrClusterProxyErrors)
		writeError(w, http.StatusBadGateway, "worker "+workerID+": "+err.Error())
		return
	}
	for _, h := range []string{"Content-Type", "Retry-After", "Location"} {
		if v := rep.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(rep.status)
	_, _ = w.Write(rep.body)
}

// handleLakeCreate registers a lake cluster-wide: record it in the
// store, open it on its rendezvous owner, answer with the placement. A
// registration the owner refuses with a 4xx is withdrawn from the store
// and answered with the owner's status; one the owner could not answer
// (unreachable, 5xx) stays stored and is answered 502.
func (c *Coordinator) handleLakeCreate(w http.ResponseWriter, r *http.Request) {
	if c.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "cluster is draining")
		return
	}
	var req StoredLake
	if !decodeBody(w, r, maxBodyBytes, &req) {
		return
	}
	if _, err := req.options(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	stored, undo, err := c.store.addLake(req)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	owner, ok := c.ownerFor(stored.ID)
	if !ok {
		// Recorded but not yet placed; the first worker to join picks it
		// up when a job arrives.
		writeJSON(w, http.StatusCreated, clusterLakeDoc{StoredLake: *stored})
		return
	}
	tables, err := c.openLakeOn(r.Context(), owner, *stored)
	var se *statusError
	if errors.As(err, &se) && se.refused() {
		// Kept, it would be listed, and every job against it would
		// fail at its first dispatch.
		if uerr := undo(); uerr != nil {
			writeError(w, http.StatusServiceUnavailable, err.Error()+"; withdrawing the registration: "+uerr.Error())
			return
		}
		writeError(w, se.status, err.Error())
		return
	}
	if err != nil {
		writeError(w, http.StatusBadGateway, err.Error())
		return
	}
	c.updateGauges()
	c.log.Info("cluster lake registered", "lake", stored.ID, "dir", stored.Dir, "worker", owner.ID)
	writeJSON(w, http.StatusCreated, clusterLakeDoc{StoredLake: *stored, Worker: owner.ID, Tables: tables})
}

// openLakeOn opens a stored lake on the given worker under its cluster
// id, forwarding the whole registration, and returns the
// worker-reported table count.
func (c *Coordinator) openLakeOn(ctx context.Context, w workerState, l StoredLake) (int, error) {
	body, _ := json.Marshal(l)
	rep, err := c.call(ctx, w.Addr, http.MethodPost, "/v1/lakes", body)
	if err != nil {
		c.cfg.Collector.Meter().Inc(telemetry.CtrClusterProxyErrors)
		return 0, fmt.Errorf("serve: open lake %s on %s: %w", l.ID, w.ID, err)
	}
	if rep.status != http.StatusCreated {
		return 0, &statusError{status: rep.status,
			msg: fmt.Sprintf("serve: open lake %s on %s: status %d: %.4096s", l.ID, w.ID, rep.status, bytes.TrimSpace(rep.body))}
	}
	var doc lakeDoc
	_ = json.Unmarshal(rep.body, &doc)
	c.noteWorkerLake(w.ID, l.ID)
	return doc.Tables, nil
}

// statusError is a worker's answer other than the one a coordinator
// request expects.
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string { return e.msg }

// refused reports whether the answer is a 4xx other than 429, which
// comes back the same on every retry.
func (e *statusError) refused() bool {
	return e.status >= 400 && e.status < 500 && e.status != http.StatusTooManyRequests
}

// noteWorkerLake records that a worker now holds a lake, without
// waiting for its next heartbeat to say so.
func (c *Coordinator) noteWorkerLake(workerID, lakeID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[workerID]
	if !ok {
		return
	}
	for _, id := range w.Lakes {
		if id == lakeID {
			return
		}
	}
	w.Lakes = append(w.Lakes, lakeID)
}

// lakeDocs renders the stored lakes with their current placements —
// the lake list of GET /v1/lakes and of the status document.
func (c *Coordinator) lakeDocs() []clusterLakeDoc {
	lakes := c.store.Lakes()
	docs := make([]clusterLakeDoc, 0, len(lakes))
	for _, l := range lakes {
		d := clusterLakeDoc{StoredLake: l}
		if owner, ok := c.ownerFor(l.ID); ok {
			d.Worker = owner.ID
		}
		docs = append(docs, d)
	}
	return docs
}

// handleLakeList serves the cluster lake registry with current
// placements.
func (c *Coordinator) handleLakeList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"lakes": c.lakeDocs()})
}

// handleLakeProxy relays a table mutation to the lake's owner, opening
// the lake there first if the owner does not hold it yet.
func (c *Coordinator) handleLakeProxy(w http.ResponseWriter, r *http.Request) {
	if c.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "cluster is draining")
		return
	}
	lakeID := r.PathValue("id")
	if c.store.LakeByID(lakeID) == nil {
		writeError(w, http.StatusNotFound, "unknown lake "+lakeID)
		return
	}
	owner, ok := c.ownerFor(lakeID)
	if !ok {
		writeError(w, http.StatusServiceUnavailable, "no workers available")
		return
	}
	if err := c.ensureLakeOn(r.Context(), owner, lakeID); err != nil {
		writeError(w, http.StatusBadGateway, err.Error())
		return
	}
	body, ok := readBody(w, r, maxBulkBodyBytes)
	if !ok {
		return
	}
	c.proxy(w, r, owner.ID, r.URL.Path, body)
}

// ensureLakeOn opens the lake on the worker if the membership view says
// it is missing there — the lazy half of rendezvous placement, used on
// first touch and after ownership moved to a rejoined or new worker.
func (c *Coordinator) ensureLakeOn(ctx context.Context, w workerState, lakeID string) error {
	for _, id := range w.Lakes {
		if id == lakeID {
			return nil
		}
	}
	stored := c.store.LakeByID(lakeID)
	if stored == nil {
		return fmt.Errorf("serve: unknown lake %q", lakeID)
	}
	_, err := c.openLakeOn(ctx, w, *stored)
	return err
}

// tenantOf extracts the request's quota bucket.
func tenantOf(r *http.Request) string { return r.Header.Get("X-Tenant") }

// handleSubmit admits one discovery job cluster-wide: quota check,
// durable store record, then an immediate dispatch attempt. A job whose
// owner is busy or unreachable stays queued in the store and is retried
// by the sweep with bounded backoff — the submission still succeeds.
func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if c.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "cluster is draining")
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
	if c.store.LakeByID(req.Lake) == nil {
		writeError(w, http.StatusNotFound, "unknown lake "+req.Lake)
		return
	}
	tenant := tenantOf(r)
	if q := c.cfg.TenantQuota; q > 0 && c.store.InFlight(tenant) >= q {
		c.cfg.Collector.Meter().Inc(telemetry.CtrClusterQuotaRejected)
		c.events.Record(telemetry.Event{
			Type:   telemetry.EventQuotaRejected,
			Detail: fmt.Sprintf("tenant %q at quota %d", tenant, q),
		})
		retry := int(c.cfg.retryBackoff/time.Second) + 1
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error":               "tenant quota exceeded",
			"retry_after_seconds": retry,
		})
		return
	}
	var traceparent string
	if sc, ok := telemetry.SpanContextFrom(r.Context()); ok {
		traceparent = sc.Traceparent()
	} else {
		traceparent = r.Header.Get("traceparent")
	}
	job, err := c.store.AddJob(tenant, req.Lake, body, traceparent, c.clock())
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	c.log.Info("cluster job admitted", "id", job.ID, "lake", job.Lake, "tenant", tenant)
	c.dispatch(r.Context(), job.ID)
	job, _ = c.store.Job(job.ID)
	c.updateGauges()
	w.Header().Set("Location", "/v1/discoveries/"+job.ID)
	writeJSON(w, http.StatusAccepted, map[string]string{"id": job.ID, "state": job.State})
}

// backoffFor computes the bounded retry delay after n attempts: base *
// 2^(n-1), capped at 8x base.
func (c *Coordinator) backoffFor(attempts int) time.Duration {
	d := c.cfg.retryBackoff
	for i := 1; i < attempts && d < 8*c.cfg.retryBackoff; i++ {
		d *= 2
	}
	if d > 8*c.cfg.retryBackoff {
		d = 8 * c.cfg.retryBackoff
	}
	return d
}

// dispatch tries to hand one queued job to its lake's current owner.
// Outcomes: accepted (job becomes dispatched); the owner refuses to open
// the lake with a 4xx other than 429, or answers the submit with
// anything but 202, 429 or 503 (job fails — it would fail identically
// anywhere); worker busy or unreachable (job stays queued with a
// bounded-backoff gate for the next sweep).
func (c *Coordinator) dispatch(ctx context.Context, jobID string) {
	job, ok := c.store.Job(jobID)
	if !ok || job.State != ClusterQueued {
		return
	}
	mx := c.cfg.Collector.Meter()
	owner, found := c.ownerFor(job.Lake)
	if !found {
		c.store.Update(jobID, func(j *StoredJob) {
			j.Attempts++
			j.NotBeforeUnixMS = c.clock().Add(c.backoffFor(j.Attempts)).UnixMilli()
		})
		return
	}
	if err := c.ensureLakeOn(ctx, owner, job.Lake); err != nil {
		var se *statusError
		if errors.As(err, &se) && se.refused() {
			c.reject(jobID, owner.ID, err.Error())
			return
		}
		c.retryLater(jobID, owner.ID, err.Error())
		return
	}
	if job.Attempts > 0 {
		mx.Inc(telemetry.CtrClusterDispatchRetries)
	}
	mx.Inc(telemetry.CtrClusterDispatches)
	// A traced job gets an explicit cluster.dispatch span between the
	// coordinator's relay span and the worker's serve.http span, so the
	// assembled cross-node tree reads relay -> dispatch -> worker.
	// call picks the span's context up from dctx; untraced jobs are sent
	// without one.
	dctx := ctx
	var dsp telemetry.Span
	traced := false
	if sc, ok := telemetry.ParseTraceparent(job.Traceparent); ok {
		dctx = telemetry.ContextWithRemote(ctx, sc)
		dctx, dsp = telemetry.StartSpan(dctx, c.cfg.Collector, telemetry.SpanClusterDispatch)
		dsp.SetStr("job", jobID)
		dsp.SetStr("worker", owner.ID)
		traced = true
	}
	start := c.clock()
	rep, err := c.call(dctx, owner.Addr, http.MethodPost, "/v1/discoveries", job.Body)
	mx.Observe(telemetry.HistClusterDispatchSeconds, c.clock().Sub(start).Seconds())
	if traced {
		if err != nil {
			dsp.SetStr("error", err.Error())
		} else {
			dsp.SetInt("status", rep.status)
		}
		dsp.End()
	}
	if err != nil {
		mx.Inc(telemetry.CtrClusterProxyErrors)
		c.retryLater(jobID, owner.ID, err.Error())
		return
	}
	switch {
	case rep.status == http.StatusAccepted:
		var acc struct {
			ID string `json:"id"`
		}
		_ = json.Unmarshal(rep.body, &acc)
		c.store.Update(jobID, func(j *StoredJob) {
			j.State = ClusterDispatched
			j.Worker = owner.ID
			j.WorkerJob = acc.ID
			j.Attempts++
			j.NotBeforeUnixMS = 0
		})
		c.log.Info("cluster job dispatched", "id", jobID, "worker", owner.ID, "worker_job", acc.ID)
	case rep.status == http.StatusTooManyRequests || rep.status == http.StatusServiceUnavailable:
		// Worker admission control said no; keep the job durable and let
		// the sweep retry after the backoff.
		c.retryLater(jobID, owner.ID, fmt.Sprintf("worker %s busy (status %d)", owner.ID, rep.status))
	default:
		c.reject(jobID, owner.ID, fmt.Sprintf("worker %s rejected job (status %d): %.4096s", owner.ID, rep.status, rep.body))
	}
}

// reject fails a job its owner refused for good.
func (c *Coordinator) reject(jobID, worker, reason string) {
	c.store.Update(jobID, func(j *StoredJob) {
		j.State = StateFailed
		j.Worker = worker
		j.Attempts++
		j.Error = reason
	})
	c.log.Warn("cluster job rejected by worker", "id", jobID, "worker", worker, "error", reason)
}

// retryLater re-queues a job with the bounded-backoff gate.
func (c *Coordinator) retryLater(jobID, worker, reason string) {
	now := c.clock()
	c.store.Update(jobID, func(j *StoredJob) {
		j.Attempts++
		j.NotBeforeUnixMS = now.Add(c.backoffFor(j.Attempts)).UnixMilli()
	})
	c.events.Record(telemetry.Event{Type: telemetry.EventDispatchRetry, Node: worker, Job: jobID, Detail: reason})
	c.log.Info("cluster dispatch deferred", "id", jobID, "worker", worker, "reason", reason)
}

// Sweep runs one pass of the coordinator's background maintenance:
// expire silent workers (rerouting their unfinished jobs), dispatch
// queued jobs whose backoff gate has passed, refresh dispatched jobs
// from their workers, pull worker telemetry for the federated metrics
// view, refresh gauges. It is called periodically by Run and directly
// by tests.
func (c *Coordinator) Sweep() {
	now := c.clock()
	mx := c.cfg.Collector.Meter()

	// 1. Membership: declare silent workers dead.
	var died []string
	c.mu.Lock()
	for _, id := range c.order {
		w := c.workers[id]
		if w.alive && now.Sub(w.lastSeen) > c.cfg.HeartbeatTimeout {
			w.alive = false
			died = append(died, id)
		}
	}
	c.mu.Unlock()

	// 2. Reroute: a dead worker's queued and unacknowledged jobs go back
	// to the cluster queue; the next dispatch below routes them to the
	// lake's new owner. Jobs whose terminal result was already observed
	// (Result recorded in the store) are never re-run.
	for _, id := range died {
		c.log.Warn("cluster worker dead", "worker", id, "timeout", c.cfg.HeartbeatTimeout)
		c.events.Record(telemetry.Event{
			Type: telemetry.EventWorkerDead, Node: id,
			Detail: fmt.Sprintf("no heartbeat for %s", c.cfg.HeartbeatTimeout),
		})
		for _, j := range c.store.Jobs() {
			if j.Worker == id && (j.State == ClusterDispatched || j.State == ClusterQueued) {
				mx.Inc(telemetry.CtrClusterReroutedJobs)
				c.store.Update(j.ID, func(sj *StoredJob) {
					sj.State = ClusterQueued
					sj.Worker, sj.WorkerJob = "", ""
					sj.Rerouted++
					sj.NotBeforeUnixMS = 0
				})
				c.events.Record(telemetry.Event{Type: telemetry.EventJobRerouted, Node: id, Job: j.ID})
				c.log.Info("cluster job rerouted", "id", j.ID, "dead_worker", id)
			}
		}
	}

	// 3. Dispatch every ripe queued job.
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.HeartbeatTimeout)
	defer cancel()
	for _, j := range c.store.Jobs() {
		if j.State == ClusterQueued && j.NotBeforeUnixMS <= now.UnixMilli() {
			c.dispatch(ctx, j.ID)
		}
	}

	// 4. Refresh dispatched jobs' states from their workers, so results
	// are durable in the store even if no client ever polls. A failed
	// poll is left to the membership step of a later sweep.
	for _, j := range c.store.Jobs() {
		if j.State == ClusterDispatched {
			_, _ = c.pollJob(ctx, j)
		}
	}

	// 5. Pull every alive worker's telemetry snapshot for the federated
	// /v1/cluster/metrics view.
	c.pullTelemetry(ctx)
	c.updateGauges()
}

// pollJob reads a dispatched job's live document from its worker into
// the returned copy's Result and, once the worker reports a terminal
// state, persists that state and document in the store. The job comes
// back unchanged when its worker is not alive or does not answer 200;
// err reports a failed exchange.
func (c *Coordinator) pollJob(ctx context.Context, j StoredJob) (StoredJob, error) {
	w, ok := c.workerByID(j.Worker)
	if !ok || !w.alive {
		return j, nil
	}
	rep, err := c.call(ctx, w.Addr, http.MethodGet, "/v1/discoveries/"+j.WorkerJob, nil)
	if err != nil {
		return j, err
	}
	var doc struct {
		State string `json:"state"`
		Error string `json:"error"`
	}
	if rep.status != http.StatusOK || json.Unmarshal(rep.body, &doc) != nil {
		return j, nil
	}
	j.Result = rep.body
	if terminalJobState(doc.State) {
		j.State, j.Error = doc.State, doc.Error
		c.store.Update(j.ID, func(sj *StoredJob) {
			sj.State, sj.Error, sj.Result = doc.State, doc.Error, rep.body
		})
		c.log.Info("cluster job finished", "id", j.ID, "state", doc.State, "worker", j.Worker)
	}
	return j, nil
}

// clusterJob renders one stored job as the coordinator's job document.
func clusterJob(j StoredJob) clusterJobDoc {
	return clusterJobDoc{
		ID: j.ID, Lake: j.Lake, Tenant: j.Tenant, State: j.State,
		Worker: j.Worker, WorkerJob: j.WorkerJob,
		Attempts: j.Attempts, Rerouted: j.Rerouted, Error: j.Error,
		SubmittedUnixMS: j.SubmittedUnixMS, Job: j.Result,
	}
}

// handleJobList serves every cluster job from the store.
func (c *Coordinator) handleJobList(w http.ResponseWriter, _ *http.Request) {
	jobs := c.store.Jobs()
	docs := make([]clusterJobDoc, 0, len(jobs))
	for _, j := range jobs {
		docs = append(docs, clusterJob(j))
	}
	writeJSON(w, http.StatusOK, map[string]any{"discoveries": docs})
}

// handleJobGet serves one cluster job, live-refreshing a dispatched
// job from its worker first so clients see current state.
func (c *Coordinator) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := c.store.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
		return
	}
	if j.State == ClusterDispatched {
		mx := c.cfg.Collector.Meter()
		mx.Inc(telemetry.CtrClusterProxied)
		var err error
		if j, err = c.pollJob(r.Context(), j); err != nil {
			mx.Inc(telemetry.CtrClusterProxyErrors)
		}
	}
	writeJSON(w, http.StatusOK, clusterJob(j))
}

// handleJobManifest relays the manifest request to the worker holding
// the job.
func (c *Coordinator) handleJobManifest(w http.ResponseWriter, r *http.Request) {
	j, ok := c.store.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
		return
	}
	if j.WorkerJob == "" {
		writeError(w, http.StatusConflict, "job has not been dispatched yet")
		return
	}
	c.proxy(w, r, j.Worker, "/v1/discoveries/"+j.WorkerJob+"/manifest", nil)
}

// handleJobCancel cancels a cluster job: a dispatched one relays the
// cancel to its worker; a still-queued one, or one whose worker is
// gone, is terminally cancelled in the store.
func (c *Coordinator) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := c.store.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job "+id)
		return
	}
	switch j.State {
	case ClusterDispatched:
		if wk, ok := c.workerByID(j.Worker); ok && wk.alive {
			c.proxy(w, r, j.Worker, "/v1/discoveries/"+j.WorkerJob, nil)
			return
		}
		// Worker gone: the reroute sweep owns this job now; cancel it at
		// the cluster level so it never re-dispatches.
		fallthrough
	case ClusterQueued:
		c.store.Update(id, func(sj *StoredJob) { sj.State = StateCancelled })
		j, _ = c.store.Job(id)
		writeJSON(w, http.StatusAccepted, clusterJob(j))
	default:
		writeJSON(w, http.StatusConflict, clusterJob(j))
	}
}

// handleHeartbeat ingests one worker heartbeat.
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var hb heartbeatMsg
	if !decodeBody(w, r, maxBodyBytes, &hb) {
		return
	}
	if err := CheckProto(hb.Proto); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if hb.ID == "" || hb.Addr == "" {
		writeError(w, http.StatusBadRequest, "id and addr are required")
		return
	}
	c.observeHeartbeat(hb)
	writeJSON(w, http.StatusOK, map[string]any{"proto": ProtoVersion, "ok": true})
}

// handleWorkers serves the coordinator's membership view.
func (c *Coordinator) handleWorkers(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"proto": ProtoVersion, "workers": c.workerDocs()})
}

// handleStoreDump serves the raw job-store snapshot — the debugging
// view of the cluster queue.
func (c *Coordinator) handleStoreDump(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(c.store.Snapshot())
}
