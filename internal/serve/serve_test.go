package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"autofeat/internal/core"
	"autofeat/internal/datagen"
	"autofeat/internal/lake"
	"autofeat/internal/obsrv"
	"autofeat/internal/telemetry"
)

// testStack is one wired service: dataset on disk, lake session,
// obsrv server and an httptest listener in front of the shared mux.
type testStack struct {
	svc  *Service
	ts   *httptest.Server
	ds   *datagen.Dataset
	dir  string
	lake *lake.Lake
}

func newStack(t *testing.T, cfg Config) *testStack {
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
	if cfg.Collector == nil {
		cfg.Collector = telemetry.New()
	}
	srv := obsrv.NewServer(obsrv.Config{Collector: cfg.Collector})
	svc := New(cfg)
	svc.Mount(srv)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	l, err := lake.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc.AddLake("lake-test", l)
	return &testStack{svc: svc, ts: ts, ds: ds, dir: dir, lake: l}
}

// postJSON posts v and decodes the response body into out (if non-nil).
func postJSON(t *testing.T, url string, v any, out any) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp
}

// waitState polls the job until it reaches a terminal state.
func waitState(t *testing.T, baseURL, id string) jobDoc {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var doc jobDoc
		getJSON(t, baseURL+"/v1/discoveries/"+id, &doc)
		switch doc.State {
		case StateDone, StateFailed, StateCancelled:
			return doc
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return jobDoc{}
}

func TestServiceEndToEnd(t *testing.T) {
	st := newStack(t, Config{Workers: 2})

	// Register a second lake over HTTP.
	var ld lakeDoc
	resp := postJSON(t, st.ts.URL+"/v1/lakes", StoredLake{Dir: st.dir}, &ld)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/lakes: status %d", resp.StatusCode)
	}
	if ld.Tables != len(st.ds.Tables) {
		t.Errorf("registered lake has %d tables, want %d", ld.Tables, len(st.ds.Tables))
	}
	var lakes struct {
		Lakes []lakeDoc `json:"lakes"`
	}
	getJSON(t, st.ts.URL+"/v1/lakes", &lakes)
	if len(lakes.Lakes) != 2 {
		t.Errorf("listed %d lakes, want 2", len(lakes.Lakes))
	}
	// The next auto-assigned id (lake-002, after ld's lake-001) skips
	// one registered explicitly.
	const explicit = "lake-002"
	postJSON(t, st.ts.URL+"/v1/lakes", StoredLake{ID: explicit, Dir: st.dir}, nil)
	var auto lakeDoc
	postJSON(t, st.ts.URL+"/v1/lakes", StoredLake{Dir: st.dir}, &auto)
	getJSON(t, st.ts.URL+"/v1/lakes", &lakes)
	if auto.ID == explicit || len(lakes.Lakes) != 4 {
		t.Errorf("auto id %q after explicit %q, %d lakes listed; want a fresh id and 4 lakes", auto.ID, explicit, len(lakes.Lakes))
	}

	// Submit a full run (ranking + model training) and poll to done.
	var sub struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	resp = postJSON(t, st.ts.URL+"/v1/discoveries", submitRequest{
		Lake: ld.ID, Base: st.ds.Base.Name(), Label: st.ds.Label, Model: "lightgbm",
	}, &sub)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/discoveries: status %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/discoveries/"+sub.ID {
		t.Errorf("Location = %q", loc)
	}
	doc := waitState(t, st.ts.URL, sub.ID)
	if doc.State != StateDone {
		t.Fatalf("job state = %s (error %q), want done", doc.State, doc.Error)
	}
	if doc.Result == nil || doc.Result.Paths == 0 {
		t.Fatal("done job should carry a result with ranked paths")
	}
	if doc.Result.BestPath == "" || doc.Result.Evaluated == 0 {
		t.Error("model run should report best_path and evaluated count")
	}

	// The job's RunProgress is visible on the introspection plane.
	if r := getJSON(t, st.ts.URL+doc.Run, nil); r.StatusCode != http.StatusOK {
		t.Errorf("GET %s: status %d", doc.Run, r.StatusCode)
	}
	// And its provenance manifest is served.
	var m core.Manifest
	if r := getJSON(t, st.ts.URL+"/v1/discoveries/"+sub.ID+"/manifest", &m); r.StatusCode != http.StatusOK {
		t.Errorf("manifest: status %d", r.StatusCode)
	} else if len(m.Paths) == 0 {
		t.Error("manifest should carry path lineage")
	}

	var list struct {
		Discoveries []jobDoc `json:"discoveries"`
	}
	getJSON(t, st.ts.URL+"/v1/discoveries", &list)
	if len(list.Discoveries) != 1 {
		t.Errorf("listed %d discoveries, want 1", len(list.Discoveries))
	}
}

func TestSubmitValidation(t *testing.T) {
	st := newStack(t, Config{Workers: 1})
	if r := postJSON(t, st.ts.URL+"/v1/discoveries", submitRequest{Lake: "lake-test"}, nil); r.StatusCode != http.StatusBadRequest {
		t.Errorf("missing base/label: status %d, want 400", r.StatusCode)
	}
	if r := postJSON(t, st.ts.URL+"/v1/discoveries", submitRequest{Lake: "nope", Base: "b", Label: "l"}, nil); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown lake: status %d, want 404", r.StatusCode)
	}
	resp, err := http.Post(st.ts.URL+"/v1/discoveries", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: status %d, want 400", resp.StatusCode)
	}
	// Unknown job ids answer 404 with the standard JSON error body.
	for _, tc := range []struct{ method, path string }{
		{http.MethodGet, "/v1/discoveries/disc-999999"},
		{http.MethodGet, "/v1/discoveries/disc-999999/manifest"},
		{http.MethodDelete, "/v1/discoveries/disc-999999"},
	} {
		hr, err := http.NewRequest(tc.method, st.ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusNotFound || ct != "application/json" || derr != nil || e.Error == "" {
			t.Errorf("unknown job %s %s: status %d, Content-Type %q, error %q (decode err %v), want 404 with a JSON error",
				tc.method, tc.path, resp.StatusCode, ct, e.Error, derr)
		}
	}
	if r := postJSON(t, st.ts.URL+"/v1/lakes", StoredLake{Dir: t.TempDir()}, nil); r.StatusCode != http.StatusBadRequest {
		t.Errorf("empty lake dir: status %d, want 400", r.StatusCode)
	}
}

// TestSubmitConfigKeepsDefaultBudget pins the one join budget at the
// submit body: a zero budget_joins keeps DefaultConfig's 3000, and a
// positive one replaces it.
func TestSubmitConfigKeepsDefaultBudget(t *testing.T) {
	def := core.DefaultConfig().MaxEvalJoins
	if got := (submitRequest{}).config(0).MaxEvalJoins; got != def || def != 3000 {
		t.Fatalf("zero budget_joins: MaxEvalJoins = %d, want the default 3000 (DefaultConfig has %d)", got, def)
	}
	if got := (submitRequest{BudgetJoins: 7}).config(0).MaxEvalJoins; got != 7 {
		t.Fatalf("budget_joins 7: MaxEvalJoins = %d", got)
	}
}

// TestSubmitRejectsRemovedFields checks that a submit body naming a field
// the service does not know, such as the removed max_paths and
// budget_rows limits or the per-job matcher and threshold (a lake's DRG
// setting is fixed at registration), gets 400 on a single node and on a
// coordinator instead of running with the field ignored.
func TestSubmitRejectsRemovedFields(t *testing.T) {
	st := newStack(t, Config{Workers: 1})
	cs := newClusterStack(t, 1, ClusterConfig{HeartbeatTimeout: 5 * time.Second}, Config{Workers: 1})
	postJSON(t, cs.coordTS.URL+"/v1/lakes", StoredLake{ID: "lake-test", Dir: cs.dir}, nil)
	for field, value := range map[string]any{"max_paths": 10, "budget_rows": 10, "matcher": "sketched", "threshold": 0.7} {
		body := map[string]any{"lake": "lake-test", "base": st.ds.Base.Name(), "label": st.ds.Label, field: value}
		for role, url := range map[string]string{"single node": st.ts.URL, "coordinator": cs.coordTS.URL} {
			var e struct {
				Error string `json:"error"`
			}
			if r := postJSON(t, url+"/v1/discoveries", body, &e); r.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, field) {
				t.Errorf("%s: %s in the submit body: status %d, error %q; want 400 naming the field", role, field, r.StatusCode, e.Error)
			}
		}
	}
	if n := cs.coord.Store().Len(); n != 0 {
		t.Errorf("coordinator admitted %d jobs with unknown fields", n)
	}
	resp, err := http.Post(st.ts.URL+"/v1/discoveries", "application/json",
		strings.NewReader(`{"lake":"lake-test","base":"b","label":"l"} {}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("data after the submit body: status %d, want 400", resp.StatusCode)
	}
}

// TestConcurrentJobsShareCaches is the cross-request caching invariant,
// end to end: two overlapping jobs against one lake session race freely
// (run under -race), a follow-up job sees warm cache hits, and every
// served manifest is bit-identical to a cold single-process run's.
func TestConcurrentJobsShareCaches(t *testing.T) {
	st := newStack(t, Config{Workers: 2, QueueDepth: 8})
	req := submitRequest{Lake: "lake-test", Base: st.ds.Base.Name(), Label: st.ds.Label}

	// Two overlapping jobs on one Lake.
	var a, b struct {
		ID string `json:"id"`
	}
	postJSON(t, st.ts.URL+"/v1/discoveries", req, &a)
	postJSON(t, st.ts.URL+"/v1/discoveries", req, &b)
	docA := waitState(t, st.ts.URL, a.ID)
	docB := waitState(t, st.ts.URL, b.ID)
	if docA.State != StateDone || docB.State != StateDone {
		t.Fatalf("states = %s/%s, want done/done", docA.State, docB.State)
	}

	// A third job on the now-warm lake must skip the offline phase and
	// reuse cached join indexes.
	var c struct {
		ID string `json:"id"`
	}
	postJSON(t, st.ts.URL+"/v1/discoveries", req, &c)
	docC := waitState(t, st.ts.URL, c.ID)
	if docC.State != StateDone {
		t.Fatalf("warm job state = %s", docC.State)
	}
	if !docC.Result.WarmGraph {
		t.Error("warm job should reuse the memoised DRG")
	}
	if docC.Result.CacheHitsDelta <= 0 {
		t.Errorf("warm job cache_hits_delta = %d, want > 0", docC.Result.CacheHitsDelta)
	}

	// Bit-identical to a cold single-process run of the same request.
	coldLake := lake.New(st.ds.Tables)
	cold, err := coldLake.Discover(context.Background(), lake.Request{Base: st.ds.Base.Name(), Label: st.ds.Label})
	if err != nil {
		t.Fatal(err)
	}
	want := manifestKey(t, cold.Manifest)
	for _, id := range []string{a.ID, b.ID, c.ID} {
		if got := servedManifest(t, st.ts.URL, id); got != want {
			t.Errorf("job %s manifest diverged from cold run:\nserved: %s\ncold:   %s", id, got, want)
		}
	}
}

// manifestKey renders a manifest as JSON without its timing fields
// (created_unix_ms, selection_seconds, total_seconds) and without the
// run and trace ids a served run stamps on it. What is left — the
// config, the graph inventory, paths_explored, pruned, every path's
// lineage, features and score bits, and any model outcomes — must be
// bit-identical across processes, cache temperatures and cluster
// placement.
func manifestKey(t *testing.T, m *core.Manifest) string {
	t.Helper()
	cp := *m
	cp.CreatedUnixMS, cp.SelectionSeconds, cp.TotalSeconds = 0, 0, 0
	cp.RunID, cp.TraceID = "", ""
	b, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// servedManifest reads GET /v1/discoveries/{id}/manifest from a node and
// returns its manifestKey.
func servedManifest(t *testing.T, baseURL, id string) string {
	t.Helper()
	var m core.Manifest
	if r := getJSON(t, baseURL+"/v1/discoveries/"+id+"/manifest", &m); r.StatusCode != http.StatusOK {
		t.Fatalf("manifest of job %s: status %d", id, r.StatusCode)
	}
	return manifestKey(t, &m)
}

// TestQueueFullRejects holds the only scheduler slot so admission is
// deterministic: one job queues, the next is rejected with 429 and a
// Retry-After hint.
func TestQueueFullRejects(t *testing.T) {
	st := newStack(t, Config{Workers: 1, QueueDepth: 1})
	st.svc.sem <- struct{}{} // occupy the slot
	req := submitRequest{Lake: "lake-test", Base: st.ds.Base.Name(), Label: st.ds.Label}

	var first struct {
		ID string `json:"id"`
	}
	if r := postJSON(t, st.ts.URL+"/v1/discoveries", req, &first); r.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d", r.StatusCode)
	}
	var rej struct {
		Error             string `json:"error"`
		RetryAfterSeconds int    `json:"retry_after_seconds"`
	}
	resp := postJSON(t, st.ts.URL+"/v1/discoveries", req, &rej)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-queue submit: status %d, want 429", resp.StatusCode)
	}
	retryHeader := resp.Header.Get("Retry-After")
	if retryHeader == "" {
		t.Error("429 should carry Retry-After")
	}
	// The body is machine-readable and consistent with the header.
	if rej.Error != "job queue is full" {
		t.Errorf("429 body error = %q", rej.Error)
	}
	if rej.RetryAfterSeconds < 1 {
		t.Errorf("429 body retry_after_seconds = %d, want >= 1", rej.RetryAfterSeconds)
	}
	if want := strconv.Itoa(rej.RetryAfterSeconds); retryHeader != want {
		t.Errorf("Retry-After header %q disagrees with body %q", retryHeader, want)
	}

	<-st.svc.sem // release; the queued job may now run
	doc := waitState(t, st.ts.URL, first.ID)
	if doc.State != StateDone {
		t.Errorf("queued job state = %s, want done", doc.State)
	}
}

// TestCancelQueuedJob cancels a job that never got a slot and checks
// the terminal-state conflict on a second DELETE.
func TestCancelQueuedJob(t *testing.T) {
	st := newStack(t, Config{Workers: 1, QueueDepth: 2})
	st.svc.sem <- struct{}{}
	defer func() { <-st.svc.sem }()
	req := submitRequest{Lake: "lake-test", Base: st.ds.Base.Name(), Label: st.ds.Label}
	var sub struct {
		ID string `json:"id"`
	}
	postJSON(t, st.ts.URL+"/v1/discoveries", req, &sub)

	del, err := http.NewRequest(http.MethodDelete, st.ts.URL+"/v1/discoveries/"+sub.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE: status %d, want 202", resp.StatusCode)
	}
	doc := waitState(t, st.ts.URL, sub.ID)
	if doc.State != StateCancelled {
		t.Errorf("state = %s, want cancelled", doc.State)
	}
	resp2, err := http.DefaultClient.Do(del.Clone(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Errorf("second DELETE: status %d, want 409", resp2.StatusCode)
	}
}

// TestDrain verifies graceful shutdown: in-flight jobs finish, new
// submissions are refused with 503.
func TestDrain(t *testing.T) {
	st := newStack(t, Config{Workers: 1})
	req := submitRequest{Lake: "lake-test", Base: st.ds.Base.Name(), Label: st.ds.Label}
	var sub struct {
		ID string `json:"id"`
	}
	postJSON(t, st.ts.URL+"/v1/discoveries", req, &sub)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := st.svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	doc := waitState(t, st.ts.URL, sub.ID)
	if doc.State != StateDone {
		t.Errorf("in-flight job state after drain = %s, want done", doc.State)
	}
	if r := postJSON(t, st.ts.URL+"/v1/discoveries", req, nil); r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d, want 503", r.StatusCode)
	}
	if r := postJSON(t, st.ts.URL+"/v1/lakes", StoredLake{Dir: st.dir}, nil); r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("lake create while draining: status %d, want 503", r.StatusCode)
	}
}

// TestManifestBeforeResult covers the 409 on a manifest request for a
// job that has not produced a result yet.
func TestManifestBeforeResult(t *testing.T) {
	st := newStack(t, Config{Workers: 1, QueueDepth: 2})
	st.svc.sem <- struct{}{}
	defer func() { <-st.svc.sem }()
	var sub struct {
		ID string `json:"id"`
	}
	postJSON(t, st.ts.URL+"/v1/discoveries",
		submitRequest{Lake: "lake-test", Base: st.ds.Base.Name(), Label: st.ds.Label}, &sub)
	if r := getJSON(t, st.ts.URL+"/v1/discoveries/"+sub.ID+"/manifest", nil); r.StatusCode != http.StatusConflict {
		t.Errorf("manifest on queued job: status %d, want 409", r.StatusCode)
	}
}

// heapPerFinishedJob runs n jobs of the given model one after another on
// a warm lake and returns how many bytes the heap after GC grew per job.
// A warm-up job first pays for the lake's DRG and key indexes, so what
// is left is what the service keeps of each finished job.
func heapPerFinishedJob(t *testing.T, model string, n int) float64 {
	t.Helper()
	st := newStack(t, Config{Workers: 1})
	req := submitRequest{Lake: "lake-test", Base: st.ds.Base.Name(), Label: st.ds.Label, Model: model}
	run := func() {
		var sub struct {
			ID string `json:"id"`
		}
		postJSON(t, st.ts.URL+"/v1/discoveries", req, &sub)
		if doc := waitState(t, st.ts.URL, sub.ID); doc.State != StateDone {
			t.Fatalf("job %s state %s (error %q), want done", sub.ID, doc.State, doc.Error)
		}
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	run()
	before := heap()
	for i := 0; i < n; i++ {
		run()
	}
	return (float64(heap()) - float64(before)) / float64(n)
}

// TestFinishedJobsKeepLittleHeap bounds what a finished job costs the
// service's heap: its job document, manifest and run progress, not its
// materialised best table or full ranking. 50 lightgbm jobs must grow
// the heap after GC by at most 16 KB per job; keeping each job's whole
// result cost about 59 KB.
func TestFinishedJobsKeepLittleHeap(t *testing.T) {
	const jobs, maxPerJob = 50, 16 << 10
	if got := heapPerFinishedJob(t, "lightgbm", jobs); got > maxPerJob {
		t.Errorf("heap after GC grew %.0f bytes per finished lightgbm job, want at most %d", got, maxPerJob)
	} else {
		t.Logf("heap after GC grew %.0f bytes per finished lightgbm job", got)
	}
}
