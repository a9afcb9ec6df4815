package obsrv

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"autofeat/internal/telemetry"
)

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"discovery.paths_explored":           "autofeat_discovery_paths_explored",
		"span_seconds.relational.left_join":  "autofeat_span_seconds_relational_left_join",
		"discovery.pruned.quality_below_tau": "autofeat_discovery_pruned_quality_below_tau",
		"weird-name with spaces":             "autofeat_weird_name_with_spaces",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPromFloat(t *testing.T) {
	if got := promFloat(0.25); got != "0.25" {
		t.Errorf("promFloat(0.25) = %q", got)
	}
	if got := promFloat(1e-5); got != "1e-05" {
		t.Errorf("promFloat(1e-5) = %q", got)
	}
}

// populatedSnapshot returns a snapshot with counters, a gauge and a
// histogram exercised, as after a real discovery run.
func populatedSnapshot() *telemetry.Snapshot {
	c := telemetry.New()
	m := c.Meter()
	for i := 0; i < 5; i++ {
		m.Inc(telemetry.CtrJoins)
	}
	m.Add(telemetry.CtrPathsExplored, 7)
	m.Inc(telemetry.CtrPrunedPrefix + "quality_below_tau")
	m.SetGauge(telemetry.GaugeWorkers, 4)
	for _, v := range []float64{1e-6, 3e-5, 0.002, 0.2, 100} {
		m.Observe(telemetry.HistSpanSecondsPrefix+telemetry.SpanLeftJoin, v)
	}
	return c.Snapshot()
}

// TestWritePrometheusFormat asserts the exposition is structurally valid:
// every line is a comment or "name[{labels}] value", every family has a
// TYPE header, histogram buckets are cumulative and end at the total
// count, and _sum/_count are present.
func TestWritePrometheusFormat(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheus(&b, populatedSnapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if out == "" {
		t.Fatal("empty exposition")
	}
	typed := map[string]string{}
	var lastCum int64 = -1
	var lastHist string
	sawInf, sawSum, sawCount := false, false, false
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			typed[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		name, val := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			t.Fatalf("sample %q: bad value %q", line, val)
		}
		if !strings.HasPrefix(name, MetricPrefix) {
			t.Fatalf("sample %q not namespaced under %q", line, MetricPrefix)
		}
		base := name
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(base, "_bucket"), "_sum"), "_count")
		if _, ok := typed[family]; !ok && typed[base] == "" {
			t.Fatalf("sample %q has no preceding TYPE header", line)
		}
		if strings.Contains(name, "_bucket{") {
			hist := base
			cum, _ := strconv.ParseInt(val, 10, 64)
			if hist != lastHist {
				lastHist, lastCum = hist, -1
			}
			if cum < lastCum {
				t.Fatalf("bucket counts not cumulative at %q (%d after %d)", line, cum, lastCum)
			}
			lastCum = cum
			if strings.Contains(name, `le="+Inf"`) {
				sawInf = true
			}
		}
		if strings.HasSuffix(base, "_sum") {
			sawSum = true
		}
		if strings.HasSuffix(base, "_count") {
			sawCount = true
		}
	}
	if !sawInf || !sawSum || !sawCount {
		t.Fatalf("histogram series incomplete: +Inf=%v sum=%v count=%v", sawInf, sawSum, sawCount)
	}
	// The +Inf bucket equals _count: 5 observations.
	if !strings.Contains(out, `autofeat_span_seconds_relational_left_join_bucket{le="+Inf"} 5`) {
		t.Fatalf("+Inf bucket != observation count:\n%s", out)
	}
	if !strings.Contains(out, "autofeat_relational_joins_total 5") &&
		!strings.Contains(out, "autofeat_relational_joins 5") {
		t.Fatalf("counter missing from exposition:\n%s", out)
	}
}

// TestSpanHistogramsUnderScrape ends 70000 spans — past every retention
// cap: the trace store's 256 traces, the flight ring's 256 spans — from
// several goroutines while another scrapes /metrics. Run under -race it
// proves span recording and the exposition are safe together; after the
// run /metrics and Phases both count every span exactly.
func TestSpanHistogramsUnderScrape(t *testing.T) {
	c := telemetry.New()
	c.ObserveSpans(telemetry.NewTraceStore(0, 0), telemetry.NewFlightRecorder(0))
	ts := httptest.NewServer(NewServer(Config{Collector: c}).Handler())
	defer ts.Close()
	scrape := func() string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Error(err)
			return ""
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Error(err)
		}
		return string(body)
	}

	done := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-done:
				return
			default:
				scrape()
			}
		}
	}()
	const workers, each = 4, 17500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				ctx, job := c.Trace().StartSpan(context.Background(), "job")
				_, step := c.Trace().StartSpan(ctx, "step")
				step.End()
				job.End()
			}
		}()
	}
	wg.Wait()
	close(done)
	<-scraped

	for _, name := range []string{"job", "step"} {
		if want := fmt.Sprintf("autofeat_span_seconds_%s_count %d\n", name, workers*each); !strings.Contains(scrape(), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	for _, p := range c.Snapshot().Phases() {
		if p.Count != workers*each {
			t.Errorf("phase %s count = %d, want %d", p.Name, p.Count, workers*each)
		}
	}
}

func TestWritePrometheusNilSnapshot(t *testing.T) {
	if err := WritePrometheus(io.Discard, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWritePrometheusGolden pins the single-node exposition byte for
// byte: unlabelled series, families in sorted name order, cumulative
// buckets.
func TestWritePrometheusGolden(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheus(&b, populatedSnapshot()); err != nil {
		t.Fatal(err)
	}
	const want = `# TYPE autofeat_discovery_paths_explored counter
autofeat_discovery_paths_explored 7
# TYPE autofeat_discovery_pruned_quality_below_tau counter
autofeat_discovery_pruned_quality_below_tau 1
# TYPE autofeat_relational_joins counter
autofeat_relational_joins 5
# TYPE autofeat_discovery_workers gauge
autofeat_discovery_workers 4
# TYPE autofeat_span_seconds_relational_left_join histogram
autofeat_span_seconds_relational_left_join_bucket{le="1e-05"} 1
autofeat_span_seconds_relational_left_join_bucket{le="2.5e-05"} 1
autofeat_span_seconds_relational_left_join_bucket{le="5e-05"} 2
autofeat_span_seconds_relational_left_join_bucket{le="0.0001"} 2
autofeat_span_seconds_relational_left_join_bucket{le="0.00025"} 2
autofeat_span_seconds_relational_left_join_bucket{le="0.0005"} 2
autofeat_span_seconds_relational_left_join_bucket{le="0.001"} 2
autofeat_span_seconds_relational_left_join_bucket{le="0.0025"} 3
autofeat_span_seconds_relational_left_join_bucket{le="0.005"} 3
autofeat_span_seconds_relational_left_join_bucket{le="0.01"} 3
autofeat_span_seconds_relational_left_join_bucket{le="0.025"} 3
autofeat_span_seconds_relational_left_join_bucket{le="0.05"} 3
autofeat_span_seconds_relational_left_join_bucket{le="0.1"} 3
autofeat_span_seconds_relational_left_join_bucket{le="0.25"} 4
autofeat_span_seconds_relational_left_join_bucket{le="0.5"} 4
autofeat_span_seconds_relational_left_join_bucket{le="1"} 4
autofeat_span_seconds_relational_left_join_bucket{le="2.5"} 4
autofeat_span_seconds_relational_left_join_bucket{le="5"} 4
autofeat_span_seconds_relational_left_join_bucket{le="10"} 4
autofeat_span_seconds_relational_left_join_bucket{le="+Inf"} 5
autofeat_span_seconds_relational_left_join_sum 100.202031
autofeat_span_seconds_relational_left_join_count 5
`
	if got := b.String(); got != want {
		t.Fatalf("exposition changed:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestNilRunProgress proves the disabled tracker is fully inert: every
// method on a nil receiver no-ops and Snapshot yields a zero status.
func TestNilRunProgress(t *testing.T) {
	var p *RunProgress
	p.Begin("b", "b.y", 3, time.Second, 10)
	p.SetPhase(PhaseDiscover)
	p.SetWorkers(4)
	p.BeginDepth(1, 2)
	p.AddEnumerated(5)
	p.SetDepthCandidates(5)
	p.JoinStart()
	p.JoinDone(telemetry.PruneJoinFailed)
	p.AddPruned(telemetry.PruneSimilarity, 2)
	p.AddPathsKept(1)
	p.MarkPartial("deadline")
	p.Finish()
	if got := p.Snapshot(); got.ID != "" || got.Done {
		t.Fatalf("nil snapshot not zero: %+v", got)
	}
	if p.ID() != "" {
		t.Fatalf("nil ID() = %q", p.ID())
	}
}

func TestRunProgressLifecycle(t *testing.T) {
	p := NewRunProgress("r1")
	if got := p.Snapshot().Phase; got != PhasePending {
		t.Fatalf("initial phase %q", got)
	}
	p.Begin("base", "base.y", 3, 2*time.Second, 50)
	p.SetWorkers(4)
	p.SetPhase(PhaseDiscover)
	p.BeginDepth(1, 1)
	p.AddEnumerated(10)
	p.SetDepthCandidates(8)
	p.JoinStart()
	p.JoinDone("")
	p.JoinStart()
	p.JoinDone(telemetry.PruneQualityBelowTau)
	p.AddPruned(telemetry.PruneSimilarity, 2)
	p.AddPruned("not_a_reason", 9) // dropped, not counted
	p.AddPathsKept(1)

	st := p.Snapshot()
	if st.ID != "r1" || st.Base != "base" || st.Label != "base.y" {
		t.Fatalf("identity wrong: %+v", st)
	}
	if st.Depth != 1 || st.MaxDepth != 3 || st.Frontier != 1 {
		t.Fatalf("depth state wrong: %+v", st)
	}
	if st.Enumerated != 10 || st.DepthJoins != 8 || st.DepthDone != 2 || st.Evaluated != 2 {
		t.Fatalf("join counters wrong: %+v", st)
	}
	if st.Pruned[telemetry.PruneQualityBelowTau] != 1 || st.Pruned[telemetry.PruneSimilarity] != 2 {
		t.Fatalf("prune counters wrong: %+v", st.Pruned)
	}
	if len(st.Pruned) != 2 {
		t.Fatalf("unknown reason leaked into %v", st.Pruned)
	}
	if st.Workers != 4 || st.WorkersBusy != 0 {
		t.Fatalf("worker occupancy wrong: %+v", st)
	}
	b := st.Budgets
	if b.TimeoutSeconds != 2 || b.MaxEvalJoins != 50 || b.EvalJoinsUsed != 2 {
		t.Fatalf("budgets wrong: %+v", b)
	}

	// BeginDepth resets per-depth counters but not totals.
	p.BeginDepth(2, 3)
	st = p.Snapshot()
	if st.DepthDone != 0 || st.DepthJoins != 0 || st.Evaluated != 2 {
		t.Fatalf("depth reset wrong: %+v", st)
	}

	// First partial reason wins.
	p.MarkPartial("deadline")
	p.MarkPartial("max_eval_joins")
	p.Finish()
	st = p.Snapshot()
	if !st.Partial || st.PartialReason != "deadline" {
		t.Fatalf("partial state wrong: %+v", st)
	}
	if !st.Done || st.Phase != PhaseDone {
		t.Fatalf("finish state wrong: %+v", st)
	}
}

func TestServerEndpoints(t *testing.T) {
	srv := NewServer(Config{Collector: telemetry.New(), EnablePprof: true})
	p := NewRunProgress("run-a")
	p.Begin("base", "base.y", 3, 0, 0)
	p.SetPhase(PhaseDiscover)
	srv.Register(p)
	srv.Register(nil)            // ignored
	srv.Register(&RunProgress{}) // no ID: ignored
	srv.Register(p)              // re-register: no duplicate

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	resp, body := get("/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}
	var health struct {
		Status string `json:"status"`
		Runs   int    `json:"runs"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Runs != 1 {
		t.Fatalf("/healthz = %+v", health)
	}

	resp, body = get("/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	_ = body

	resp, body = get("/runs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/runs status %d", resp.StatusCode)
	}
	var runs struct {
		Runs []struct {
			ID    string `json:"id"`
			Phase string `json:"phase"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(body, &runs); err != nil {
		t.Fatal(err)
	}
	if len(runs.Runs) != 1 || runs.Runs[0].ID != "run-a" || runs.Runs[0].Phase != PhaseDiscover {
		t.Fatalf("/runs = %+v", runs)
	}

	resp, body = get("/runs/run-a")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/runs/run-a status %d", resp.StatusCode)
	}
	var st RunStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID != "run-a" || st.Base != "base" || st.Phase != PhaseDiscover {
		t.Fatalf("/runs/run-a = %+v", st)
	}

	resp, _ = get("/runs/ghost")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/runs/ghost status %d, want 404", resp.StatusCode)
	}

	resp, _ = get("/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d", resp.StatusCode)
	}
}

// TestServerPprofDisabled proves pprof stays off the mux by default.
func TestServerPprofDisabled(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof reachable without EnablePprof (status %d)", resp.StatusCode)
	}
}
