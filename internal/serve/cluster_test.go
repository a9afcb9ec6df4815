package serve

// Cluster tests: a real coordinator and real workers wired over
// httptest listeners, with an injectable clock and hand-driven
// heartbeats/sweeps so membership transitions are deterministic under
// -race. The end-to-end test kills a worker with queued jobs and
// asserts the survivor finishes them with manifests bit-identical to a
// single-node run.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"autofeat/internal/datagen"
	"autofeat/internal/lake"
	"autofeat/internal/obsrv"
	"autofeat/internal/telemetry"
)

// fakeClock is a hand-advanced time source shared by the coordinator
// and the test.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// clusterWorker is one worker node: service, agent, and its listener.
type clusterWorker struct {
	svc   *Service
	agent *Agent
	ts    *httptest.Server
}

// clusterStack is a full cluster on localhost: one coordinator and N
// workers, plus the shared dataset directory every lake opens from.
type clusterStack struct {
	coord   *Coordinator
	coordTS *httptest.Server
	workers []*clusterWorker
	clock   *fakeClock
	ds      *datagen.Dataset
	dir     string
}

// newClusterStack wires a coordinator and n workers, which join by one
// heartbeat each. Worker heartbeats are sent by the test (via
// heartbeatAll), never by a background loop, so liveness transitions
// only happen when the test advances the clock.
func newClusterStack(t *testing.T, n int, ccfg ClusterConfig, wcfg Config) *clusterStack {
	t.Helper()
	return newClusterStackAt(t, n, ccfg, wcfg, "")
}

// newClusterStackAt is newClusterStack with the coordinator's job store
// persisted at storePath ("" keeps it in memory).
func newClusterStackAt(t *testing.T, n int, ccfg ClusterConfig, wcfg Config, storePath string) *clusterStack {
	t.Helper()
	ds, err := datagen.Generate(datagen.SmallSpecs()[0])
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, tb := range ds.Tables {
		if err := tb.WriteCSVFile(filepath.Join(dir, tb.Name()+".csv")); err != nil {
			t.Fatal(err)
		}
	}
	cs := &clusterStack{clock: newFakeClock(), ds: ds, dir: dir}

	for i := 0; i < n; i++ {
		cfg := wcfg
		if cfg.Collector == nil {
			cfg.Collector = telemetry.New()
		}
		// Every worker keeps a trace store, wired exactly like production:
		// the obsrv server renders it and the agent serves it to the
		// coordinator's cross-node trace assembly.
		traces := telemetry.NewTraceStore(0, 0)
		cfg.Collector.ObserveSpans(traces)
		srv := obsrv.NewServer(obsrv.Config{Collector: cfg.Collector, Traces: traces})
		svc := New(cfg)
		svc.Mount(srv)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		agent := NewAgent(AgentConfig{
			ID:        fmt.Sprintf("worker-%c", 'a'+i),
			Addr:      ts.URL,
			Collector: cfg.Collector,
			Traces:    traces,
		}, svc)
		agent.Mount(srv)
		cs.workers = append(cs.workers, &clusterWorker{svc: svc, agent: agent, ts: ts})
	}

	if ccfg.Collector == nil {
		ccfg.Collector = telemetry.New()
	}
	if ccfg.Traces == nil {
		// The coordinator's relay and dispatch spans land here; its obsrv
		// server stays trace-less so Mount owns the /v1/traces patterns.
		ccfg.Traces = telemetry.NewTraceStore(0, 0)
		ccfg.Collector.ObserveSpans(ccfg.Traces)
	}
	ccfg.clock = cs.clock.now
	store, err := NewJobStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	cs.coord = NewCoordinator(ccfg, store)
	csrv := obsrv.NewServer(obsrv.Config{Collector: ccfg.Collector})
	cs.coord.Mount(csrv)
	cs.coordTS = httptest.NewServer(csrv.Handler())
	t.Cleanup(cs.coordTS.Close)

	cs.heartbeatAll(t, nil)
	return cs
}

// heartbeatAll posts one heartbeat per worker straight into the
// coordinator (skipping still-killed listeners).
func (cs *clusterStack) heartbeatAll(t *testing.T, alive map[string]bool) {
	t.Helper()
	for _, w := range cs.workers {
		if alive != nil && !alive[w.agent.cfg.ID] {
			continue
		}
		cs.coord.observeHeartbeat(w.agent.status())
	}
}

// workerByID finds the in-process worker with the given cluster id.
func (cs *clusterStack) workerByID(id string) *clusterWorker {
	for _, w := range cs.workers {
		if w.agent.cfg.ID == id {
			return w
		}
	}
	return nil
}

// waitClusterJob sweeps and polls until the cluster job is terminal.
// alive names the workers still heartbeating (nil = all): the poll loop
// advances the fake clock, so workers not re-announced here lapse dead.
func waitClusterJob(t *testing.T, cs *clusterStack, id string, alive map[string]bool) StoredJob {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		cs.heartbeatAll(t, alive)
		cs.coord.Sweep()
		j, ok := cs.coord.Store().Job(id)
		if !ok {
			t.Fatalf("cluster job %s vanished from the store", id)
		}
		switch j.State {
		case StateDone, StateFailed, StateCancelled:
			return j
		}
		cs.clock.advance(50 * time.Millisecond) // ripen dispatch backoffs
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("cluster job %s did not finish in time", id)
	return StoredJob{}
}

// submitCluster posts one discovery through the coordinator.
func submitCluster(t *testing.T, cs *clusterStack, tenant string, req submitRequest) (id, state string, status int) {
	t.Helper()
	body, _ := json.Marshal(req)
	hr, err := http.NewRequest(http.MethodPost, cs.coordTS.URL+"/v1/discoveries", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		hr.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var acc struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&acc)
	return acc.ID, acc.State, resp.StatusCode
}

// singleNodeManifest runs the same request directly against a fresh
// lake session and returns its manifestKey — the single-node baseline
// for bit-identity assertions.
func singleNodeManifest(t *testing.T, cs *clusterStack, req submitRequest) string {
	t.Helper()
	l, err := lake.Open(cs.dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := req.config(0)
	res, err := l.Discover(context.Background(), lake.Request{
		Base:   req.Base,
		Label:  req.Label,
		Config: &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return manifestKey(t, res.Manifest)
}

// TestClusterEndToEnd is the tentpole e2e: 1 coordinator + 2 workers,
// two lakes, overlapping jobs; the worker holding queued jobs is killed
// and its jobs must complete on the survivor with manifests identical
// to a single-node run.
func TestClusterEndToEnd(t *testing.T) {
	cs := newClusterStack(t, 2,
		ClusterConfig{HeartbeatTimeout: 5 * time.Second, TenantQuota: 0},
		Config{Workers: 1, QueueDepth: 8})

	// Register two lakes over the coordinator API; both open from the
	// shared dataset directory.
	for _, id := range []string{"lake-001", "lake-002"} {
		var doc clusterLakeDoc
		resp := postJSON(t, cs.coordTS.URL+"/v1/lakes", StoredLake{ID: id, Dir: cs.dir}, &doc)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST /v1/lakes %s: status %d", id, resp.StatusCode)
		}
		if doc.Worker == "" {
			t.Fatalf("lake %s was not placed on any worker", id)
		}
		if doc.Tables != len(cs.ds.Tables) {
			t.Fatalf("lake %s opened with %d tables, want %d", id, doc.Tables, len(cs.ds.Tables))
		}
	}

	// The victim is whichever worker rendezvous hashing gave lake-001.
	owner, ok := cs.coord.ownerFor("lake-001")
	if !ok {
		t.Fatal("no owner for lake-001")
	}
	victim := cs.workerByID(owner.ID)
	var survivor *clusterWorker
	for _, w := range cs.workers {
		if w != victim {
			survivor = w
		}
	}

	// Occupy the victim's only slot so dispatched jobs queue worker-side
	// instead of running — the "killed mid-queue" setup.
	victim.svc.sem <- struct{}{}

	req := submitRequest{Lake: "lake-001", Base: cs.ds.Base.Name(), Label: cs.ds.Label}
	reqOther := submitRequest{Lake: "lake-002", Base: cs.ds.Base.Name(), Label: cs.ds.Label}
	idA, stateA, status := submitCluster(t, cs, "", req)
	if status != http.StatusAccepted || stateA != ClusterDispatched {
		t.Fatalf("job A: status %d state %q, want 202 dispatched", status, stateA)
	}
	idB, _, status := submitCluster(t, cs, "", req)
	if status != http.StatusAccepted {
		t.Fatalf("job B: status %d", status)
	}
	idC, _, status := submitCluster(t, cs, "", reqOther)
	if status != http.StatusAccepted {
		t.Fatalf("job C: status %d", status)
	}

	jA, _ := cs.coord.Store().Job(idA)
	if jA.Worker != victim.agent.cfg.ID {
		t.Fatalf("job A dispatched to %q, want victim %q", jA.Worker, victim.agent.cfg.ID)
	}

	// Kill the victim: close its listener and let its heartbeats lapse
	// while the survivor keeps announcing itself.
	victim.ts.Close()
	onlySurvivor := map[string]bool{survivor.agent.cfg.ID: true}
	cs.clock.advance(6 * time.Second)
	cs.heartbeatAll(t, onlySurvivor)
	cs.coord.Sweep()

	jA, _ = cs.coord.Store().Job(idA)
	if jA.Rerouted == 0 {
		t.Fatalf("job A was not rerouted after worker death: %+v", jA)
	}

	want := singleNodeManifest(t, cs, req)
	for _, id := range []string{idA, idB, idC} {
		j := waitClusterJob(t, cs, id, onlySurvivor)
		if j.State != StateDone {
			t.Fatalf("cluster job %s finished %q (error %q), want done", id, j.State, j.Error)
		}
		if j.Worker != survivor.agent.cfg.ID {
			t.Errorf("job %s finished on %q, want survivor %q", id, j.Worker, survivor.agent.cfg.ID)
		}
		// Bit-identity: the manifest the coordinator serves for the job
		// must match the single-node baseline's exactly.
		if id == idC {
			continue // different lake, same data — checked for doneness only
		}
		if got := servedManifest(t, cs.coordTS.URL, id); got != want {
			t.Errorf("job %s manifest diverged from single-node run:\ncluster: %s\nsingle:  %s", id, got, want)
		}
	}

	// Cluster metrics recorded the death and reroute.
	snapshot := cs.coord.cfg.Collector.Snapshot()
	if got := snapshot.Counters[telemetry.CtrClusterReroutedJobs]; got < 2 {
		t.Errorf("cluster.rerouted_jobs = %d, want >= 2", got)
	}
}

// TestClusterHeartbeatTimeout covers membership liveness: a silent
// worker is declared dead after the timeout and rejoins on its next
// heartbeat.
func TestClusterHeartbeatTimeout(t *testing.T) {
	cs := newClusterStack(t, 2, ClusterConfig{HeartbeatTimeout: 5 * time.Second}, Config{Workers: 1})

	var view struct {
		Workers []workerDoc `json:"workers"`
	}
	getJSON(t, cs.coordTS.URL+"/cluster/v1/workers", &view)
	if len(view.Workers) != 2 || !view.Workers[0].Alive || !view.Workers[1].Alive {
		t.Fatalf("want 2 alive workers, got %+v", view.Workers)
	}

	// Only worker-a keeps heartbeating; worker-b lapses.
	cs.clock.advance(6 * time.Second)
	cs.heartbeatAll(t, map[string]bool{"worker-a": true})
	cs.coord.Sweep()

	getJSON(t, cs.coordTS.URL+"/cluster/v1/workers", &view)
	for _, w := range view.Workers {
		wantAlive := w.ID == "worker-a"
		if w.Alive != wantAlive {
			t.Errorf("worker %s alive=%v, want %v", w.ID, w.Alive, wantAlive)
		}
	}

	// A fresh heartbeat resurrects worker-b.
	cs.heartbeatAll(t, nil)
	getJSON(t, cs.coordTS.URL+"/cluster/v1/workers", &view)
	for _, w := range view.Workers {
		if !w.Alive {
			t.Errorf("worker %s still dead after rejoin heartbeat", w.ID)
		}
	}

	// A heartbeat speaking the wrong protocol version is rejected.
	resp := postJSON(t, cs.coordTS.URL+"/cluster/v1/heartbeat",
		heartbeatMsg{Proto: "autofeat/cluster/v0", ID: "worker-x", Addr: "http://x"}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("wrong-proto heartbeat: status %d, want 400", resp.StatusCode)
	}
}

// TestClusterTenantQuota covers coordinator-level admission: a tenant
// at its in-flight quota gets 429 with the machine-readable
// retry_after_seconds body while other tenants are unaffected.
func TestClusterTenantQuota(t *testing.T) {
	cs := newClusterStack(t, 1,
		ClusterConfig{HeartbeatTimeout: 5 * time.Second, TenantQuota: 1},
		Config{Workers: 1, QueueDepth: 8})
	postJSON(t, cs.coordTS.URL+"/v1/lakes", StoredLake{ID: "lake-001", Dir: cs.dir}, nil)
	w := cs.workers[0]
	w.svc.sem <- struct{}{} // park the worker so jobs stay in flight

	req := submitRequest{Lake: "lake-001", Base: cs.ds.Base.Name(), Label: cs.ds.Label}
	if _, _, status := submitCluster(t, cs, "acme", req); status != http.StatusAccepted {
		t.Fatalf("first acme job: status %d", status)
	}

	body, _ := json.Marshal(req)
	hr, _ := http.NewRequest(http.MethodPost, cs.coordTS.URL+"/v1/discoveries", bytes.NewReader(body))
	hr.Header.Set("X-Tenant", "acme")
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After header")
	}
	var rej struct {
		Error             string `json:"error"`
		RetryAfterSeconds int    `json:"retry_after_seconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rej); err != nil {
		t.Fatal(err)
	}
	if rej.Error == "" || rej.RetryAfterSeconds <= 0 {
		t.Errorf("429 body %+v: want error text and positive retry_after_seconds", rej)
	}

	// Another tenant is not blocked by acme's quota.
	if _, _, status := submitCluster(t, cs, "globex", req); status != http.StatusAccepted {
		t.Errorf("other-tenant job: status %d, want 202", status)
	}

	<-w.svc.sem // release; both jobs run to completion
	id3, _, status := submitCluster(t, cs, "acme", req)
	_ = status
	for _, j := range cs.coord.Store().Jobs() {
		waitClusterJob(t, cs, j.ID, nil)
	}
	_ = id3
}

// TestClusterWorkerBusyRequeues covers the routed-429 path: when the
// owning worker's queue is full the coordinator keeps the job durable
// in ClusterQueued (the client still gets 202) and a later sweep
// dispatches it after the worker drains.
func TestClusterWorkerBusyRequeues(t *testing.T) {
	cs := newClusterStack(t, 1,
		ClusterConfig{HeartbeatTimeout: 5 * time.Second, retryBackoff: 10 * time.Millisecond},
		Config{Workers: 1, QueueDepth: 1})
	postJSON(t, cs.coordTS.URL+"/v1/lakes", StoredLake{ID: "lake-001", Dir: cs.dir}, nil)
	w := cs.workers[0]
	w.svc.sem <- struct{}{} // hold the slot: worker queue fills at 1

	req := submitRequest{Lake: "lake-001", Base: cs.ds.Base.Name(), Label: cs.ds.Label}
	idA, stateA, status := submitCluster(t, cs, "", req)
	if status != http.StatusAccepted || stateA != ClusterDispatched {
		t.Fatalf("job A: status %d state %q", status, stateA)
	}
	idB, stateB, status := submitCluster(t, cs, "", req)
	if status != http.StatusAccepted {
		t.Fatalf("job B: status %d, want 202 even when the worker is full", status)
	}
	if stateB != ClusterQueued {
		t.Fatalf("job B state %q, want queued (worker rejected with 429)", stateB)
	}

	<-w.svc.sem // drain the worker
	cs.clock.advance(time.Second)
	for _, id := range []string{idA, idB} {
		if j := waitClusterJob(t, cs, id, nil); j.State != StateDone {
			t.Fatalf("job %s finished %q (error %q)", id, j.State, j.Error)
		}
	}
	jB, _ := cs.coord.Store().Job(idB)
	if jB.Attempts < 2 {
		t.Errorf("job B attempts = %d, want >= 2 (initial 429 then retry)", jB.Attempts)
	}
}

// TestJobStoreRecovery covers coordinator-restart semantics: reloading
// a snapshot re-queues dispatched jobs (safe to re-run: deterministic
// rankings) and preserves terminal ones.
func TestJobStoreRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")
	s1, err := NewJobStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.AddLake(StoredLake{ID: "lake-001", Dir: "/data"}); err != nil {
		t.Fatal(err)
	}
	// An id-less registration skips the explicit lake-001.
	auto, err := s1.AddLake(StoredLake{Dir: "/other"})
	if err != nil {
		t.Fatal(err)
	}
	if auto.ID == "lake-001" {
		t.Errorf("auto-assigned id %q replaced the explicit lake", auto.ID)
	}
	if got := s1.Lakes(); len(got) != 2 || s1.LakeByID("lake-001").Dir != "/data" {
		t.Errorf("lakes after an auto id = %+v, want lake-001 on /data plus one more", got)
	}
	now := time.Unix(1_700_000_000, 0)
	a, errA := s1.AddJob("t1", "lake-001", json.RawMessage(`{"base":"b"}`), "", now)
	b, errB := s1.AddJob("t1", "lake-001", json.RawMessage(`{"base":"b"}`), "", now)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	s1.Update(a.ID, func(j *StoredJob) { j.State = ClusterDispatched; j.Worker = "w1"; j.WorkerJob = "job-001" })
	s1.Update(b.ID, func(j *StoredJob) { j.State = StateDone; j.Worker = "w1" })

	s2, err := NewJobStore(path)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := s2.Job(a.ID)
	if ja.State != ClusterQueued || ja.Worker != "" {
		t.Errorf("dispatched job after recovery: %+v, want re-queued with no worker", ja)
	}
	jb, _ := s2.Job(b.ID)
	if jb.State != StateDone {
		t.Errorf("done job after recovery: state %q, want done", jb.State)
	}
	if s2.LakeByID("lake-001") == nil {
		t.Error("lake registration lost across recovery")
	}

	// Wrong-proto snapshots are rejected outright.
	if err := s2.load([]byte(`{"proto":"autofeat/cluster/v2"}`)); err == nil {
		t.Error("load accepted a wrong-proto snapshot")
	}
	// So are null entries, empty ids and repeated ids, and a rejected
	// snapshot leaves the recovered store as it was.
	before := s2.Snapshot()
	for _, bad := range []string{
		`{"proto":"autofeat/cluster/v1","lakes":[null]}`,
		`{"proto":"autofeat/cluster/v1","jobs":[null]}`,
		`{"proto":"autofeat/cluster/v1","lakes":[{"dir":"/data"}]}`,
		`{"proto":"autofeat/cluster/v1","jobs":[{"state":"queued"}]}`,
		`{"proto":"autofeat/cluster/v1","lakes":[{"id":"lake-001"},{"id":"lake-001"}]}`,
		`{"proto":"autofeat/cluster/v1","jobs":[{"id":"cjob-000001"},{"id":"cjob-000001"}]}`,
	} {
		if err := s2.load([]byte(bad)); err == nil {
			t.Errorf("load accepted %s", bad)
		}
	}
	if after := s2.Snapshot(); !bytes.Equal(after, before) {
		t.Errorf("a rejected load changed the store:\nbefore: %s\nafter:  %s", before, after)
	}
}

// FuzzJobStoreLoad feeds arbitrary bytes to the job-store loader, the
// path a coordinator's -store file takes at startup. No input may
// panic, and a store that accepts an input must reproduce its own
// Snapshot byte for byte through a fresh store.
func FuzzJobStoreLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		s1, _ := NewJobStore("")
		if s1.load(b) != nil {
			return
		}
		snap := s1.Snapshot()
		s2, _ := NewJobStore("")
		if err := s2.load(snap); err != nil {
			t.Fatalf("store rejects its own snapshot: %v\n%s", err, snap)
		}
		if again := s2.Snapshot(); !bytes.Equal(again, snap) {
			t.Fatalf("snapshot changed across a reload:\nfirst:  %s\nsecond: %s", snap, again)
		}
	})
}

// TestRendezvousPlacement pins the placement invariants: ownership is
// deterministic, sequential lake ids spread over every worker, and
// removing one worker only moves that worker's lakes.
func TestRendezvousPlacement(t *testing.T) {
	cs := newClusterStack(t, 3, ClusterConfig{HeartbeatTimeout: 5 * time.Second}, Config{Workers: 1})
	lakes := []string{"lake-001", "lake-002", "lake-003", "lake-004", "lake-005", "lake-006"}
	before := map[string]string{}
	owned := map[string]int{}
	for _, id := range lakes {
		o1, ok1 := cs.coord.ownerFor(id)
		o2, ok2 := cs.coord.ownerFor(id)
		if !ok1 || !ok2 || o1.ID != o2.ID {
			t.Fatalf("ownerFor(%s) not deterministic: %v/%v %q/%q", id, ok1, ok2, o1.ID, o2.ID)
		}
		before[id] = o1.ID
		owned[o1.ID]++
	}
	for _, w := range []string{"worker-a", "worker-b", "worker-c"} {
		if owned[w] == 0 {
			t.Errorf("%s owns none of %v (placement %v)", w, lakes, before)
		}
	}

	// Kill worker-b; only its lakes may move, and none may stay on it.
	cs.clock.advance(6 * time.Second)
	cs.heartbeatAll(t, map[string]bool{"worker-a": true, "worker-c": true})
	cs.coord.Sweep()
	for _, id := range lakes {
		after, ok := cs.coord.ownerFor(id)
		if !ok {
			t.Fatalf("ownerFor(%s) found no owner after death", id)
		}
		if after.ID == "worker-b" {
			t.Errorf("lake %s still placed on dead worker-b", id)
		}
		if before[id] != "worker-b" && after.ID != before[id] {
			t.Errorf("lake %s moved %s -> %s although its owner survived", id, before[id], after.ID)
		}
	}
}

// TestCoordinatorForwardedRoutes pins every client route the coordinator
// forwards to a worker: the worker's status, Content-Type and document
// come back unchanged, the worker's state really changes, and each
// request counts once in cluster.proxied_requests and never in
// cluster.proxy_errors.
func TestCoordinatorForwardedRoutes(t *testing.T) {
	cs := newClusterStack(t, 1,
		ClusterConfig{HeartbeatTimeout: 5 * time.Second},
		Config{Workers: 1, QueueDepth: 8})
	postJSON(t, cs.coordTS.URL+"/v1/lakes", StoredLake{ID: "lake-001", Dir: cs.dir}, nil)
	w := cs.workers[0]
	workerLake := w.svc.Lake("lake-001")
	req := submitRequest{Lake: "lake-001", Base: cs.ds.Base.Name(), Label: cs.ds.Label}

	// A finished job for the manifest route, then a job parked in the
	// worker's queue for the live read and the cancel.
	doneID, _, _ := submitCluster(t, cs, "", req)
	done := waitClusterJob(t, cs, doneID, nil)
	w.svc.sem <- struct{}{}
	defer func() { <-w.svc.sem }()
	parkedID, state, _ := submitCluster(t, cs, "", req)
	if state != ClusterDispatched {
		t.Fatalf("parked job state %q, want dispatched", state)
	}
	parked, _ := cs.coord.Store().Job(parkedID)

	upsert, _ := json.Marshal(tableUpsertRequest{Name: "extra", CSV: "k,v\n1,10\n2,20\n3,30\n"})
	mutation := func(t *testing.T, body []byte, op string) {
		var doc tableMutationDoc
		if err := json.Unmarshal(body, &doc); err != nil || doc.Op != op || doc.Table != "extra" || doc.Lake != "lake-001" {
			t.Errorf("relayed mutation doc %s (decode err %v), want op %s on lake-001/extra", body, err, op)
		}
	}
	for _, tc := range []struct {
		name, method, path string
		body               []byte
		status             int
		check              func(t *testing.T, body []byte)
	}{
		{"table upsert", http.MethodPost, "/v1/lakes/lake-001/tables", upsert, http.StatusOK, func(t *testing.T, body []byte) {
			mutation(t, body, "register")
			if workerLake.Table("extra") == nil {
				t.Error("worker lake has no table extra after the relayed upsert")
			}
		}},
		{"table drop", http.MethodDelete, "/v1/lakes/lake-001/tables/extra", nil, http.StatusOK, func(t *testing.T, body []byte) {
			mutation(t, body, "drop")
			if workerLake.Table("extra") != nil {
				t.Error("worker lake still holds table extra after the relayed drop")
			}
		}},
		{"live job", http.MethodGet, "/v1/discoveries/" + parkedID, nil, http.StatusOK, func(t *testing.T, body []byte) {
			var doc clusterJobDoc
			var live jobDoc
			if err := json.Unmarshal(body, &doc); err != nil {
				t.Fatalf("job doc %s: %v", body, err)
			}
			if err := json.Unmarshal(doc.Job, &live); err != nil || live.ID != parked.WorkerJob || live.State != StateQueued {
				t.Errorf("job field %s (decode err %v), want the worker's queued doc %s", doc.Job, err, parked.WorkerJob)
			}
		}},
		{"manifest", http.MethodGet, "/v1/discoveries/" + doneID + "/manifest", nil, http.StatusOK, func(t *testing.T, body []byte) {
			resp, err := http.Get(w.ts.URL + "/v1/discoveries/" + done.WorkerJob + "/manifest")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			want, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, want) {
				t.Errorf("relayed manifest differs from the worker's own:\nrelayed: %.200s\nworker:  %.200s", body, want)
			}
		}},
		{"cancel", http.MethodDelete, "/v1/discoveries/" + parkedID, nil, http.StatusAccepted, func(t *testing.T, body []byte) {
			var doc jobDoc
			if err := json.Unmarshal(body, &doc); err != nil || doc.ID != parked.WorkerJob {
				t.Errorf("relayed cancel doc %s (decode err %v), want worker job %s", body, err, parked.WorkerJob)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			counters := func() (proxied, errs int64) {
				c := cs.coord.cfg.Collector.Snapshot().Counters
				return c[telemetry.CtrClusterProxied], c[telemetry.CtrClusterProxyErrors]
			}
			proxied0, errs0 := counters()
			hr, err := http.NewRequest(tc.method, cs.coordTS.URL+tc.path, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(hr)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.status, body)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type %q, want application/json", ct)
			}
			tc.check(t, body)
			proxied1, errs1 := counters()
			if proxied1-proxied0 != 1 || errs1 != errs0 {
				t.Errorf("counter deltas proxied %+d proxy_errors %+d, want +1 and +0", proxied1-proxied0, errs1-errs0)
			}
		})
	}
}

// TestCoordinatorForwardsLakeFormat checks that a lake's format travels
// with its registration: a columnar-only open of a CSV lake fails on the
// worker, so the coordinator answers the worker's 400 with its reason,
// and a CSV-only registration is stored with its format for every later
// open.
func TestCoordinatorForwardsLakeFormat(t *testing.T) {
	cs := newClusterStack(t, 1, ClusterConfig{HeartbeatTimeout: 5 * time.Second}, Config{Workers: 1})
	var e struct {
		Error string `json:"error"`
	}
	resp := postJSON(t, cs.coordTS.URL+"/v1/lakes", StoredLake{ID: "lake-001", Dir: cs.dir, Format: "columnar"}, &e)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "no columnar table files") {
		t.Fatalf("columnar open of a CSV lake: status %d error %q, want 400 with the worker's reason", resp.StatusCode, e.Error)
	}
	if r := postJSON(t, cs.coordTS.URL+"/v1/lakes", StoredLake{ID: "lake-001", Dir: cs.dir, Format: "csv"}, nil); r.StatusCode != http.StatusCreated {
		t.Fatalf("csv open of a CSV lake: status %d, want 201", r.StatusCode)
	}
	var store struct {
		Lakes []StoredLake `json:"lakes"`
	}
	getJSON(t, cs.coordTS.URL+"/cluster/v1/jobs", &store)
	if len(store.Lakes) != 1 || store.Lakes[0].Format != "csv" {
		t.Errorf("stored lakes %+v, want lake-001 with format csv", store.Lakes)
	}
}

// TestRefusedRegistrationIsNotKept registers lakes that their owner
// refuses to open with a 400 (columnar-only over CSV files): under a
// fresh id, under no id, and under the id of a stored lake. Each is
// answered with the owner's 400 and reason, and leaves GET /v1/lakes
// and the store file as they were, lake-id counter included.
func TestRefusedRegistrationIsNotKept(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")
	cs := newClusterStackAt(t, 1, ClusterConfig{HeartbeatTimeout: 5 * time.Second}, Config{Workers: 1}, path)
	if r := postJSON(t, cs.coordTS.URL+"/v1/lakes", StoredLake{ID: "lake-001", Dir: cs.dir}, nil); r.StatusCode != http.StatusCreated {
		t.Fatalf("registering lake-001: status %d, want 201", r.StatusCode)
	}
	state := func() (list, file []byte) {
		resp, err := http.Get(cs.coordTS.URL + "/v1/lakes")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if list, err = io.ReadAll(resp.Body); err != nil {
			t.Fatal(err)
		}
		if file, err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
		return list, file
	}
	list0, file0 := state()
	for _, reg := range []StoredLake{
		{ID: "lake-002", Dir: cs.dir, Format: "columnar"},
		{Dir: cs.dir, Format: "columnar"},
		{ID: "lake-001", Dir: cs.dir, Format: "columnar"},
	} {
		var e struct {
			Error string `json:"error"`
		}
		if r := postJSON(t, cs.coordTS.URL+"/v1/lakes", reg, &e); r.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "no columnar table files") {
			t.Errorf("registering %+v: status %d error %q, want 400 with the worker's reason", reg, r.StatusCode, e.Error)
		}
		list, file := state()
		if !bytes.Equal(list, list0) {
			t.Errorf("after refused %+v, GET /v1/lakes:\n%s\nwant as before:\n%s", reg, list, list0)
		}
		if !bytes.Equal(file, file0) {
			t.Errorf("after refused %+v, store file:\n%s\nwant as before:\n%s", reg, file, file0)
		}
	}
}

// TestRefusedRegistrationUnpersistedWithdrawal covers a refused
// registration whose withdrawal cannot be written: the owner removes the
// store's directory before it refuses. The coordinator answers 503 and
// keeps the record, which is what the store file holds.
func TestRefusedRegistrationUnpersistedWithdrawal(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	cs := newClusterStackAt(t, 0, ClusterConfig{HeartbeatTimeout: 5 * time.Second}, Config{Workers: 1}, filepath.Join(dir, "store.json"))
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := os.RemoveAll(dir); err != nil {
			t.Error(err)
		}
		writeError(w, http.StatusBadRequest, "refused")
	}))
	t.Cleanup(owner.Close)
	cs.coord.observeHeartbeat(heartbeatMsg{Proto: ProtoVersion, ID: "worker-a", Addr: owner.URL})
	if r := postJSON(t, cs.coordTS.URL+"/v1/lakes", StoredLake{ID: "lake-001", Dir: cs.dir}, nil); r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("refused registration with an unwritable store: status %d, want 503", r.StatusCode)
	}
	if cs.coord.Store().LakeByID("lake-001") == nil {
		t.Error("dropped a record whose withdrawal the store could not persist")
	}
}

// TestRegistrationRefusesUnknownSettings registers lakes with an
// unknown matcher or format on a single node and on a coordinator. Both
// roles answer 400 naming the value and keep nothing: no lake on the
// node, no record in the coordinator's store.
func TestRegistrationRefusesUnknownSettings(t *testing.T) {
	st := newStack(t, Config{Workers: 1})
	cs := newClusterStack(t, 1, ClusterConfig{HeartbeatTimeout: 5 * time.Second}, Config{Workers: 1})
	for _, reg := range []StoredLake{
		{ID: "bad-matcher", Matcher: "bogus"},
		{ID: "bad-format", Format: "parquet"},
	} {
		for role, stack := range map[string]struct{ url, dir string }{
			"single node": {st.ts.URL, st.dir},
			"coordinator": {cs.coordTS.URL, cs.dir},
		} {
			reg.Dir = stack.dir
			var e struct {
				Error string `json:"error"`
			}
			bad := reg.Matcher + reg.Format
			if r := postJSON(t, stack.url+"/v1/lakes", reg, &e); r.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, bad) {
				t.Errorf("%s: registering %+v: status %d, error %q; want 400 naming %q", role, reg, r.StatusCode, e.Error, bad)
			}
		}
		if st.svc.Lake(reg.ID) != nil {
			t.Errorf("single node kept lake %s", reg.ID)
		}
		if cs.coord.Store().LakeByID(reg.ID) != nil {
			t.Errorf("coordinator stored lake %s", reg.ID)
		}
	}
	if ids := cs.workers[0].svc.LakeIDs(); len(ids) != 0 {
		t.Errorf("worker opened lakes %v", ids)
	}
}

// TestJobFailsWhenOwnerRefusesLake covers a lake stored while no worker
// was alive, which its owner then refuses to open with a 4xx (a
// columnar-only lake over CSV files): a job against it fails with the
// worker's reason at its first dispatch instead of staying queued, and
// later sweeps leave it failed.
func TestJobFailsWhenOwnerRefusesLake(t *testing.T) {
	cs := newClusterStack(t, 1, ClusterConfig{HeartbeatTimeout: 5 * time.Second}, Config{Workers: 1})
	cs.clock.advance(6 * time.Second)
	cs.coord.Sweep() // the only worker is dead
	if r := postJSON(t, cs.coordTS.URL+"/v1/lakes", StoredLake{ID: "lake-001", Dir: cs.dir, Format: "columnar"}, nil); r.StatusCode != http.StatusCreated {
		t.Fatalf("registration with no worker alive: status %d, want 201", r.StatusCode)
	}
	cs.heartbeatAll(t, nil) // the owner rejoins
	req := submitRequest{Lake: "lake-001", Base: cs.ds.Base.Name(), Label: cs.ds.Label}
	id, _, status := submitCluster(t, cs, "acme", req)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d", status)
	}
	for i := 0; i < 5; i++ {
		cs.heartbeatAll(t, nil)
		cs.coord.Sweep()
		cs.clock.advance(time.Second)
	}
	j, _ := cs.coord.Store().Job(id)
	if j.State != StateFailed || !strings.Contains(j.Error, "status 400") || !strings.Contains(j.Error, "no columnar table files") {
		t.Fatalf("job state %q error %q, want failed with the worker's 400 reason", j.State, j.Error)
	}
	if j.Attempts != 1 {
		t.Errorf("%d dispatch attempts, want 1", j.Attempts)
	}
	if n := cs.coord.Store().InFlight("acme"); n != 0 {
		t.Errorf("tenant has %d jobs in flight, want 0", n)
	}
}

// TestCoordinatorRejectsUnpersistedRecords points the coordinator's
// store at a directory that does not exist. A lake registration and a
// submission then answer 503 and leave nothing behind, since a restart
// would lose them; once the directory exists the next one is admitted
// and reaches the file.
func TestCoordinatorRejectsUnpersistedRecords(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "missing")
	path := filepath.Join(dir, "store.json")
	cs := newClusterStackAt(t, 1, ClusterConfig{HeartbeatTimeout: 5 * time.Second}, Config{Workers: 1}, path)
	store := cs.coord.Store()
	lakeReq := StoredLake{ID: "lake-001", Dir: cs.dir}
	if r := postJSON(t, cs.coordTS.URL+"/v1/lakes", lakeReq, nil); r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unwritable store: lake registration status %d, want 503", r.StatusCode)
	}
	if store.LakeByID("lake-001") != nil {
		t.Fatal("kept a lake registration the store could not persist")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if r := postJSON(t, cs.coordTS.URL+"/v1/lakes", lakeReq, nil); r.StatusCode != http.StatusCreated {
		t.Fatalf("writable store: lake registration status %d, want 201", r.StatusCode)
	}

	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	req := submitRequest{Lake: "lake-001", Base: cs.ds.Base.Name(), Label: cs.ds.Label}
	if r := postJSON(t, cs.coordTS.URL+"/v1/discoveries", req, nil); r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unwritable store: submission status %d, want 503", r.StatusCode)
	}
	if n := store.Len(); n != 0 {
		t.Fatalf("kept %d jobs the store could not persist", n)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if r := postJSON(t, cs.coordTS.URL+"/v1/discoveries", req, &acc); r.StatusCode != http.StatusAccepted {
		t.Fatalf("writable store: submission status %d, want 202", r.StatusCode)
	}
	if acc.ID != "cjob-000001" {
		t.Errorf("admitted job id %q: the rejected submission used up an id", acc.ID)
	}
	disk, err := NewJobStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := disk.Job(acc.ID); !ok || disk.LakeByID("lake-001") == nil {
		t.Errorf("store file lacks the admitted job %s or lake-001", acc.ID)
	}
}

// TestWorkerServesNoStoreOrInfo checks that a worker no longer serves
// the routes that carried the coordinator's job-store replica and its
// identity document for static seeding: the coordinator's file is the
// one job store and workers join by heartbeat alone, so each answers
// 404.
func TestWorkerServesNoStoreOrInfo(t *testing.T) {
	cs := newClusterStack(t, 1, ClusterConfig{HeartbeatTimeout: 5 * time.Second}, Config{Workers: 1})
	const prefix = "/cluster/v1/"
	for _, tc := range []struct {
		method, route string
		body          io.Reader
	}{
		{http.MethodGet, "info", nil},
		{http.MethodPost, "jobstore", strings.NewReader(`{"proto":"autofeat/cluster/v1"}`)},
		{http.MethodGet, "jobstore", nil},
	} {
		hr, err := http.NewRequest(tc.method, cs.workers[0].ts.URL+prefix+tc.route, tc.body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s%s on a worker: status %d, want 404", tc.method, prefix, tc.route, resp.StatusCode)
		}
	}
}
