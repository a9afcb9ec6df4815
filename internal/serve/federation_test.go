package serve

// Federation tests: merged cluster metrics, cross-node trace assembly,
// the event journal and the status surface, all through a real
// coordinator + workers over httptest listeners. The main test runs a
// traced discovery with a concurrent /v1/cluster/metrics scraper so
// -race exercises the snapshot-pull and render paths together.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autofeat/internal/obsrv"
	"autofeat/internal/telemetry"
)

// submitClusterTraced posts one discovery through the coordinator with
// an explicit W3C traceparent so the whole dispatch joins the trace.
func submitClusterTraced(t *testing.T, cs *clusterStack, traceparent string, req submitRequest) string {
	t.Helper()
	body, _ := json.Marshal(req)
	hr, err := http.NewRequest(http.MethodPost, cs.coordTS.URL+"/v1/discoveries", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("traceparent", traceparent)
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("traced submit: status %d, want 202", resp.StatusCode)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	return acc.ID
}

// findSpan walks a span forest for the first node with the given name.
func findSpan(nodes []*telemetry.SpanNode, name string) *telemetry.SpanNode {
	for _, n := range nodes {
		if n.Name == name {
			return n
		}
		if hit := findSpan(n.Children, name); hit != nil {
			return hit
		}
	}
	return nil
}

// TestClusterObservabilityFederation is the federation e2e: a traced
// discovery dispatched through the coordinator must yield (a) one
// assembled span tree from the coordinator's GET /v1/traces/{id}
// spanning coordinator and worker spans with correct parentage, and
// (b) a merged /v1/cluster/metrics exposition labelling every node's
// series — scraped concurrently while the job runs, so -race covers
// the pull/render paths under load.
func TestClusterObservabilityFederation(t *testing.T) {
	cs := newClusterStack(t, 2,
		ClusterConfig{HeartbeatTimeout: 5 * time.Second},
		Config{Workers: 1, QueueDepth: 8})
	postJSON(t, cs.coordTS.URL+"/v1/lakes", StoredLake{ID: "lake-001", Dir: cs.dir}, nil)

	// Concurrent scraper: hammer the federated metrics endpoint for the
	// whole life of the traced job.
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			resp, err := http.Get(cs.coordTS.URL + "/v1/cluster/metrics")
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()

	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	id := submitClusterTraced(t, cs, "00-"+traceID+"-00f067aa0ba902b7-01",
		submitRequest{Lake: "lake-001", Base: cs.ds.Base.Name(), Label: cs.ds.Label})
	if j := waitClusterJob(t, cs, id, nil); j.State != StateDone {
		t.Fatalf("traced job finished %q (error %q), want done", j.State, j.Error)
	}
	// One more sweep so pullTelemetry sees the workers' post-job counters.
	cs.heartbeatAll(t, nil)
	cs.coord.Sweep()
	close(done)
	wg.Wait()

	// (a) Cross-node trace assembly: one tree, correct parentage.
	var tdoc struct {
		TraceID string                `json:"trace_id"`
		Spans   int                   `json:"spans"`
		Nodes   []string              `json:"nodes"`
		Roots   []*telemetry.SpanNode `json:"roots"`
	}
	getJSON(t, cs.coordTS.URL+"/v1/traces/"+traceID, &tdoc)
	if tdoc.TraceID != traceID {
		t.Fatalf("trace doc id %q, want %q", tdoc.TraceID, traceID)
	}
	if len(tdoc.Roots) != 1 {
		t.Fatalf("assembled trace has %d roots, want exactly 1 (spans: %d, nodes: %v)",
			len(tdoc.Roots), tdoc.Spans, tdoc.Nodes)
	}
	root := tdoc.Roots[0]
	if root.Name != telemetry.SpanHTTP {
		t.Errorf("root span %q, want %q (the coordinator relay)", root.Name, telemetry.SpanHTTP)
	}
	dispatch := findSpan(root.Children, telemetry.SpanClusterDispatch)
	if dispatch == nil {
		t.Fatalf("no %s span under the relay root", telemetry.SpanClusterDispatch)
	}
	workerHTTP := findSpan(dispatch.Children, telemetry.SpanHTTP)
	if workerHTTP == nil {
		t.Fatalf("no worker %s span under %s", telemetry.SpanHTTP, telemetry.SpanClusterDispatch)
	}
	if findSpan(workerHTTP.Children, telemetry.SpanJob) == nil {
		t.Fatalf("no %s span under the worker's %s", telemetry.SpanJob, telemetry.SpanHTTP)
	}
	j, _ := cs.coord.Store().Job(id)
	wantNodes := map[string]bool{"coordinator": false, j.Worker: false}
	for _, n := range tdoc.Nodes {
		if _, ok := wantNodes[n]; ok {
			wantNodes[n] = true
		}
	}
	for n, seen := range wantNodes {
		if !seen {
			t.Errorf("assembled trace missing spans from node %q (nodes: %v)", n, tdoc.Nodes)
		}
	}

	// (b) Merged metrics: one scrape of the coordinator covers every
	// node, each series labelled with its node of origin.
	resp, err := http.Get(cs.coordTS.URL + "/v1/cluster/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics Content-Type %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`autofeat_cluster_dispatches{node="coordinator"}`,
		`autofeat_serve_time_to_result_seconds_count{node="` + j.Worker + `"}`,
		`autofeat_cluster_dispatch_seconds_bucket{node="coordinator",le="+Inf"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("federated metrics missing %q", want)
		}
	}
	if n := strings.Count(text, "# TYPE autofeat_cluster_dispatches counter"); n != 1 {
		t.Errorf("family header emitted %d times, want once", n)
	}

	// The coordinator counted its telemetry pulls.
	snap := cs.coord.cfg.Collector.Snapshot()
	if snap.Counters[telemetry.CtrClusterTelemetryPulls] == 0 {
		t.Error("cluster.telemetry_pulls never incremented")
	}
}

// TestCoordinatorProxyErrorPath covers the unreachable-worker proxy
// path: the coordinator returns 502 with a JSON error body and counts
// the failure in cluster.proxy_errors.
func TestCoordinatorProxyErrorPath(t *testing.T) {
	cs := newClusterStack(t, 1,
		ClusterConfig{HeartbeatTimeout: 5 * time.Second},
		Config{Workers: 1, QueueDepth: 8})
	postJSON(t, cs.coordTS.URL+"/v1/lakes", StoredLake{ID: "lake-001", Dir: cs.dir}, nil)
	w := cs.workers[0]
	w.svc.sem <- struct{}{} // park the worker so the job stays dispatched

	id, state, status := submitCluster(t, cs, "",
		submitRequest{Lake: "lake-001", Base: cs.ds.Base.Name(), Label: cs.ds.Label})
	if status != http.StatusAccepted || state != ClusterDispatched {
		t.Fatalf("submit: status %d state %q, want 202 dispatched", status, state)
	}

	// Kill the worker's listener but keep it heartbeating (in-process),
	// so the coordinator still routes to it and hits a transport error.
	w.ts.Close()
	cs.heartbeatAll(t, nil)

	before := cs.coord.cfg.Collector.Snapshot().Counters[telemetry.CtrClusterProxyErrors]
	resp, err := http.Get(cs.coordTS.URL + "/v1/discoveries/" + id + "/manifest")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("manifest via dead worker: status %d, want 502", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("502 Content-Type %q, want application/json", ct)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("502 body is not JSON: %v", err)
	}
	if !strings.Contains(e.Error, w.agent.cfg.ID) {
		t.Errorf("502 error %q does not name the unreachable worker %q", e.Error, w.agent.cfg.ID)
	}
	after := cs.coord.cfg.Collector.Snapshot().Counters[telemetry.CtrClusterProxyErrors]
	if after <= before {
		t.Errorf("cluster.proxy_errors did not increment (%d -> %d)", before, after)
	}
	<-w.svc.sem
}

// TestClusterEventJournal covers the event journal and the status
// surface: membership transitions are recorded in order and served at
// GET /v1/cluster/events, and GET /v1/cluster/status reflects them.
func TestClusterEventJournal(t *testing.T) {
	cs := newClusterStack(t, 2,
		ClusterConfig{HeartbeatTimeout: 5 * time.Second},
		Config{Workers: 1})
	postJSON(t, cs.coordTS.URL+"/v1/lakes", StoredLake{ID: "lake-001", Dir: cs.dir}, nil)

	// Let worker-b lapse: its death must be journaled.
	cs.clock.advance(6 * time.Second)
	cs.heartbeatAll(t, map[string]bool{"worker-a": true})
	cs.coord.Sweep()

	var edoc struct {
		Proto  string            `json:"proto"`
		Total  int64             `json:"total"`
		Events []telemetry.Event `json:"events"`
	}
	getJSON(t, cs.coordTS.URL+"/v1/cluster/events", &edoc)
	if edoc.Proto != ProtoVersion {
		t.Errorf("events proto %q, want %q", edoc.Proto, ProtoVersion)
	}
	if edoc.Total < int64(len(edoc.Events)) || len(edoc.Events) == 0 {
		t.Fatalf("event journal total %d with %d events, want a populated journal", edoc.Total, len(edoc.Events))
	}
	types := map[string]int{}
	var lastSeq int64
	for _, e := range edoc.Events {
		if e.Seq <= lastSeq {
			t.Fatalf("event seq not strictly increasing: %d after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		if e.TimeUnixMS == 0 {
			t.Errorf("event %d has no timestamp", e.Seq)
		}
		types[e.Type]++
	}
	if types[telemetry.EventWorkerJoined] < 2 {
		t.Errorf("want >= 2 %s events (both workers), got %d", telemetry.EventWorkerJoined, types[telemetry.EventWorkerJoined])
	}
	if types[telemetry.EventWorkerDead] == 0 {
		t.Errorf("no %s event after worker-b lapsed (types: %v)", telemetry.EventWorkerDead, types)
	}

	// worker-b rejoins; the journal records the rejoin.
	cs.heartbeatAll(t, nil)
	getJSON(t, cs.coordTS.URL+"/v1/cluster/events", &edoc)
	found := false
	for _, e := range edoc.Events {
		if e.Type == telemetry.EventWorkerRejoined && e.Node == "worker-b" {
			found = true
		}
	}
	if !found {
		t.Error("no worker_rejoined event for worker-b after its comeback heartbeat")
	}

	// The status surface reflects membership, placement and the journal.
	var sdoc struct {
		Proto     string `json:"proto"`
		Node      string `json:"node"`
		WorkersUp int    `json:"workers_up"`
		Workers   []workerDoc
		Lakes     []clusterLakeDoc
		Events    int64            `json:"events_recorded"`
		Counters  map[string]int64 `json:"counters"`
	}
	getJSON(t, cs.coordTS.URL+"/v1/cluster/status", &sdoc)
	if sdoc.Proto != ProtoVersion || sdoc.Node != "coordinator" {
		t.Errorf("status proto/node %q/%q, want %q/coordinator", sdoc.Proto, sdoc.Node, ProtoVersion)
	}
	if sdoc.WorkersUp != 2 || len(sdoc.Workers) != 2 {
		t.Errorf("status workers_up %d of %d, want 2 of 2", sdoc.WorkersUp, len(sdoc.Workers))
	}
	if len(sdoc.Lakes) != 1 || sdoc.Lakes[0].Worker == "" {
		t.Errorf("status lakes %+v, want lake-001 with a placement", sdoc.Lakes)
	}
	if sdoc.Events != edoc.Total {
		t.Errorf("status events_recorded %d, want %d", sdoc.Events, edoc.Total)
	}
	if sdoc.Counters[telemetry.CtrClusterHeartbeats] == 0 {
		t.Error("status counters missing cluster heartbeats — merge dropped the coordinator's registry?")
	}
}

// TestJobStoreRetention covers the bounded terminal-job retention: the
// oldest terminal docs are evicted FIFO past the cap, non-terminal jobs
// are never evicted, and the eviction counter is cumulative.
func TestJobStoreRetention(t *testing.T) {
	s, err := NewJobStore("")
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0)
	var ids []string
	for i := 0; i < 5; i++ {
		j, err := s.AddJob("t1", "lake-001", json.RawMessage(`{}`), "", now)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	for _, id := range ids[:3] {
		s.Update(id, func(j *StoredJob) { j.State = StateDone })
	}
	s.Update(ids[3], func(j *StoredJob) { j.State = ClusterDispatched })

	s.SetRetention(2) // three terminal docs -> evict the oldest one
	if got := s.Evicted(); got != 1 {
		t.Fatalf("Evicted() = %d after capping at 2, want 1", got)
	}
	if _, ok := s.Job(ids[0]); ok {
		t.Errorf("oldest terminal job %s survived retention", ids[0])
	}
	for _, id := range ids[1:] {
		if _, ok := s.Job(id); !ok {
			t.Errorf("job %s evicted, want retained", id)
		}
	}

	// Another job turning terminal evicts the next-oldest terminal doc;
	// the queued and dispatched jobs are untouchable.
	s.Update(ids[3], func(j *StoredJob) { j.State = StateFailed })
	if got := s.Evicted(); got != 2 {
		t.Fatalf("Evicted() = %d after a fourth terminal job, want 2", got)
	}
	if _, ok := s.Job(ids[1]); ok {
		t.Errorf("second-oldest terminal job %s survived, want FIFO eviction", ids[1])
	}
	if _, ok := s.Job(ids[4]); !ok {
		t.Error("queued job was evicted; retention must only touch terminal docs")
	}
	counts := s.StateCounts()
	if counts[StateDone]+counts[StateFailed] != 2 {
		t.Errorf("terminal docs after retention: %v, want exactly 2", counts)
	}
}

// checkExposition walks a Prometheus text exposition and fails the test
// when a histogram series' cumulative buckets go down, or when its
// +Inf bucket differs from the _count line that follows its _sum.
func checkExposition(t *testing.T, text string) {
	t.Helper()
	var prev, inf int64
	var series string
	inBuckets, wantCount := false, false
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			inBuckets, wantCount = false, false
			continue
		}
		at := strings.LastIndexByte(line, ' ')
		if at < 0 {
			t.Fatalf("exposition line without a value: %q", line)
		}
		key, raw := line[:at], line[at+1:]
		name, labels, _ := strings.Cut(key, "{")
		if strings.HasSuffix(name, "_bucket") && strings.Contains(labels, `le="`) {
			v, err := strconv.ParseInt(raw, 10, 64)
			if err != nil {
				t.Fatalf("bucket line %q: %v", line, err)
			}
			id := name + "{" + labels[:strings.Index(labels, `le="`)]
			if inBuckets && id == series && v < prev {
				t.Fatalf("cumulative bucket goes down from %d to %d: %q\n%s", prev, v, line, text)
			}
			inBuckets, series, prev = true, id, v
			if strings.Contains(labels, `le="+Inf"`) {
				inBuckets, wantCount, inf = false, true, v
			}
			continue
		}
		if wantCount && strings.HasSuffix(name, "_count") {
			if raw != strconv.FormatInt(inf, 10) {
				t.Fatalf("+Inf bucket %d, but %q\n%s", inf, line, text)
			}
			wantCount = false
		}
	}
}

// coordinatorSnapshot is a coordinator's own registry with one
// histogram observed, for merging and rendering beside a worker reply.
func coordinatorSnapshot() *telemetry.Snapshot {
	c := telemetry.New()
	for _, v := range []float64{0.001, 0.2, 3, 30} {
		c.Meter().Observe(telemetry.HistTimeToResultSeconds, v)
	}
	c.Meter().Inc(telemetry.CtrClusterDispatches)
	return c.Snapshot()
}

// FuzzTelemetryReply feeds arbitrary bytes to the coordinator's reading
// of a worker's GET /cluster/v1/telemetry reply. Any reply is either
// refused, or it merges into the status rollup through Snapshot.Merge
// and renders in the federated exposition through WritePrometheusNodes
// without panicking, with cumulative buckets that never go down and end
// at each histogram's count.
func FuzzTelemetryReply(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		snap, err := decodeTelemetry(http.StatusOK, body)
		if err != nil {
			return
		}
		own := coordinatorSnapshot()
		merged := &telemetry.Snapshot{}
		merged.Merge(own)
		merged.Merge(snap)
		var buf bytes.Buffer
		nodes := []obsrv.NodeSnapshot{{Node: coordinatorNode, Snap: own}, {Node: "worker-a", Snap: snap}}
		if err := obsrv.WritePrometheusNodes(&buf, nodes); err != nil {
			t.Fatal(err)
		}
		checkExposition(t, buf.String())
	})
}

// TestRefusedTelemetryReplyKeepsSnapshot serves the coordinator a valid
// telemetry reply, then each of the seed corpus's invalid ones, such as
// bounds [1,2] with counts [5,5,5] and count 3, which would render a
// +Inf bucket below the buckets before it. Each invalid reply counts in
// cluster.telemetry_errors, and the worker's valid snapshot stays in
// the federated exposition.
func TestRefusedTelemetryReplyKeepsSnapshot(t *testing.T) {
	cs := newClusterStack(t, 0, ClusterConfig{HeartbeatTimeout: 5 * time.Second}, Config{Workers: 1})
	var reply atomic.Pointer[[]byte]
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(*reply.Load())
	}))
	t.Cleanup(worker.Close)
	cs.coord.observeHeartbeat(heartbeatMsg{Proto: ProtoVersion, ID: "worker-a", Addr: worker.URL})

	corpus := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzTelemetryReply", name))
		if err != nil {
			t.Fatal(err)
		}
		_, lit, _ := strings.Cut(strings.TrimSpace(string(b)), "[]byte(")
		s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("corpus entry %s: %v", name, err)
		}
		return []byte(s)
	}
	scrape := func() string {
		resp, err := http.Get(cs.coordTS.URL + "/v1/cluster/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	errorsNow := func() int64 {
		return cs.coord.cfg.Collector.Snapshot().Counters[telemetry.CtrClusterTelemetryErrors]
	}
	const kept = `autofeat_serve_time_to_result_seconds_bucket{node="worker-a",le="2"} 3`

	valid := corpus("valid")
	reply.Store(&valid)
	cs.coord.Sweep()
	want := scrape()
	if !strings.Contains(want, kept) || errorsNow() != 0 {
		t.Fatalf("valid reply: %d telemetry errors, exposition without %q:\n%s", errorsNow(), kept, want)
	}
	checkExposition(t, want)

	for _, name := range []string{"buckets_go_down", "short_counts", "negative_count", "descending_bounds", "nan_bound"} {
		bad := corpus(name)
		reply.Store(&bad)
		before := errorsNow()
		cs.coord.Sweep()
		if got := errorsNow(); got != before+1 {
			t.Errorf("%s: cluster.telemetry_errors went %d -> %d, want one more", name, before, got)
		}
		if got := scrape(); !strings.Contains(got, kept) {
			t.Errorf("%s: the worker's valid snapshot was replaced:\n%s", name, got)
		}
	}
}
