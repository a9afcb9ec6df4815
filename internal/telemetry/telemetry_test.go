package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// fakeClock advances a fixed step on every reading, making every
// span timestamp (and therefore the JSON snapshot) deterministic.
func fakeClock(step time.Duration) func() time.Time {
	t := time.Unix(0, 0).UTC()
	return func() time.Time {
		t = t.Add(step)
		return t
	}
}

// loggedTracer returns a fake-clock tracer with a SpanLog attached, the
// observer tests read finished spans back from.
func loggedTracer() (*Tracer, *SpanLog) {
	tr := NewTracerWithClock(fakeClock(time.Millisecond))
	log := &SpanLog{}
	tr.AddObserver(log)
	return tr, log
}

func TestSpanNesting(t *testing.T) {
	tr, log := loggedTracer()
	ctx, root := tr.StartSpan(context.Background(), "root")
	cctx, child := tr.StartSpan(ctx, "child")
	_, grand := tr.StartSpan(cctx, "grand")
	grand.End()
	child.End()
	_, sibling := tr.StartSpan(ctx, "sibling")
	sibling.End()
	root.End()

	spans := log.Spans()
	if len(spans) != 4 {
		t.Fatalf("want 4 spans, got %d", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["root"].Parent != 0 || byName["root"].ParentSpanID != "" {
		t.Fatalf("root must have no parent: %+v", byName["root"])
	}
	if byName["child"].Parent != byName["root"].ID {
		t.Fatalf("child must nest under root: %+v", byName["child"])
	}
	if byName["grand"].Parent != byName["child"].ID {
		t.Fatalf("grand must nest under child: %+v", byName["grand"])
	}
	if byName["grand"].ParentSpanID != byName["child"].SpanID {
		t.Fatalf("grand's parent_span_id must be child's span_id: %+v", byName["grand"])
	}
	if byName["sibling"].Parent != byName["root"].ID {
		t.Fatalf("sibling started from root's ctx must nest under root: %+v", byName["sibling"])
	}
	for _, s := range spans {
		if s.DurUS < 0 {
			t.Fatalf("span %s left open", s.Name)
		}
		if s.TraceID != byName["root"].TraceID {
			t.Fatalf("span %s left the trace: %+v", s.Name, s)
		}
	}
}

func TestSpanOutOfOrderEnd(t *testing.T) {
	// Parentage is fixed at StartSpan from the context, so ending spans
	// out of creation order cannot corrupt later attribution (the old
	// open-stack tracer needed this property explicitly).
	tr, log := loggedTracer()
	ctx, a := tr.StartSpan(context.Background(), "a")
	bctx, b := tr.StartSpan(ctx, "b")
	a.End() // out of order: a ends while its child b is still open
	_, c := tr.StartSpan(bctx, "c")
	c.End()
	b.End()
	byName := map[string]SpanRecord{}
	for _, s := range log.Spans() {
		byName[s.Name] = s
	}
	if byName["c"].Parent != byName["b"].ID {
		t.Fatalf("c must nest under b: %+v", byName["c"])
	}
	if d := byName["a"].DurUS; d <= 0 {
		t.Fatalf("a must be closed: %v", d)
	}
}

func TestSpanDoubleEndAndAttrs(t *testing.T) {
	tr, log := loggedTracer()
	_, s := tr.StartSpan(context.Background(), "x")
	s.SetStr("edge", "a.k -> b.k")
	s.SetInt("matched", 42)
	s.SetFloat("quality", 0.9)
	first := s.End()
	if first <= 0 {
		t.Fatal("End must return the duration")
	}
	if again := s.End(); again != 0 {
		t.Fatalf("second End must be a no-op, got %v", again)
	}
	s.SetStr("late", "ignored after End")
	rec := log.Spans()[0]
	if len(rec.Attrs) != 3 || rec.Attrs[0].Key != "edge" || rec.Attrs[1].Value != int64(42) {
		t.Fatalf("attrs wrong: %+v", rec.Attrs)
	}
}

func TestNilSafety(t *testing.T) {
	var c *Collector
	tr := c.Trace()
	mx := c.Meter()
	_, sp := tr.StartSpan(context.Background(), "ignored")
	sp.SetStr("k", "v")
	sp.SetInt("k", 1)
	sp.SetFloat("k", 1.5)
	if d := sp.End(); d != 0 {
		t.Fatalf("nil span End = %v", d)
	}
	mx.Inc("x")
	mx.Add("x", 5)
	mx.SetGauge("g", 1)
	mx.Observe("h", 0.5)
	if mx.Counter("x") != 0 || mx.Gauge("g") != 0 || mx.HistogramCount("h") != 0 {
		t.Fatal("nil metrics must read zero")
	}
	snap := c.Snapshot()
	if snap == nil || len(snap.Histograms) != 0 || len(snap.Phases()) != 0 {
		t.Fatal("nil collector snapshot must be empty but valid")
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 2, 10, 99, 1000} {
		h.Observe(v)
	}
	// Upper-inclusive: <=1 -> {0.5, 1}; <=10 -> {2, 10}; <=100 -> {99}; +Inf -> {1000}.
	want := []int64{2, 2, 1, 1}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, h.Counts[i], w, h.Counts)
		}
	}
	if h.Count != 6 || h.Min != 0.5 || h.Max != 1000 {
		t.Fatalf("count/min/max wrong: %+v", h)
	}
	if got := h.Mean(); math.Abs(got-1112.5/6) > 1e-9 {
		t.Fatalf("mean = %v", got)
	}
	empty := NewHistogram(nil)
	if empty.Mean() != 0 {
		t.Fatal("empty mean must be 0")
	}
	if len(empty.Bounds) != len(DefaultBuckets) {
		t.Fatal("nil bounds must use DefaultBuckets")
	}
}

func TestMetricsRegistry(t *testing.T) {
	m := NewMetrics()
	m.Inc("c")
	m.Add("c", 4)
	m.SetGauge("g", 2.5)
	m.SetGauge("g", 3.5)
	m.Observe("h", 0.001)
	m.Observe("h", 0.002)
	if m.Counter("c") != 5 {
		t.Fatalf("counter = %d", m.Counter("c"))
	}
	if m.Gauge("g") != 3.5 {
		t.Fatalf("gauge = %v", m.Gauge("g"))
	}
	if m.HistogramCount("h") != 2 {
		t.Fatalf("histogram count = %d", m.HistogramCount("h"))
	}
}

func TestSnapshotPruningView(t *testing.T) {
	c := New()
	c.Meter().Inc(PrunedCounter(PruneJoinFailed))
	c.Meter().Add(PrunedCounter(PruneQualityBelowTau), 3)
	c.Meter().Inc("unrelated.counter")
	p := c.Snapshot().Pruning()
	if len(p) != 2 || p[PruneJoinFailed] != 1 || p[PruneQualityBelowTau] != 3 {
		t.Fatalf("pruning view wrong: %v", p)
	}
}

// TestGoldenSnapshotJSON locks the JSON layout of both output files
// under a fixed fake clock: any accidental format change shows up as a
// diff here rather than breaking downstream consumers.
func TestGoldenSnapshotJSON(t *testing.T) {
	c := NewWithClock(fakeClock(time.Millisecond))
	log := &SpanLog{}
	c.ObserveSpans(log)
	ctx, run := StartSpan(context.Background(), c, SpanRun)
	_, join := StartSpan(ctx, c, SpanJoinEval)
	join.SetStr("edge", "base.id -> right.k")
	join.SetInt("matched_rows", 7)
	join.End()
	run.End()
	c.Meter().Inc(CtrPathsExplored)
	c.Meter().Inc(PrunedCounter(PruneQualityBelowTau))
	c.Meter().SetGauge(GaugeSelectionSeconds, 0.25)
	snap := c.Snapshot()

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := WriteTraceFile(path, log); err != nil {
		t.Fatal(err)
	}
	trace, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trace = bytes.TrimSuffix(trace, []byte("\n"))
	wantTrace := `{
  "spans": [
    {
      "id": 1,
      "name": "discovery.run",
      "trace_id": "00000000000000000000000000000001",
      "span_id": "0000000000000001",
      "start_us": 1000,
      "dur_us": 3000
    },
    {
      "id": 2,
      "parent": 1,
      "name": "discovery.evaluate_join",
      "trace_id": "00000000000000000000000000000001",
      "span_id": "0000000000000002",
      "parent_span_id": "0000000000000001",
      "start_us": 2000,
      "dur_us": 1000,
      "attrs": [
        {
          "k": "edge",
          "v": "base.id -\u003e right.k"
        },
        {
          "k": "matched_rows",
          "v": 7
        }
      ]
    }
  ]
}`
	if string(trace) != wantTrace {
		t.Fatalf("trace JSON drifted:\n--- got ---\n%s\n--- want ---\n%s", trace, wantTrace)
	}

	metrics, err := snap.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	wantMetrics := `{
  "counters": {
    "discovery.paths_explored": 1,
    "discovery.pruned.quality_below_tau": 1
  },
  "gauges": {
    "discovery.selection_seconds": 0.25
  },
  "histograms": {
    "span_seconds.discovery.evaluate_join": {
      "count": 1,
      "sum": 0.001,
      "mean": 0.001,
      "min": 0.001,
      "max": 0.001,
      "bounds": [
        0.00001,
        0.000025,
        0.00005,
        0.0001,
        0.00025,
        0.0005,
        0.001,
        0.0025,
        0.005,
        0.01,
        0.025,
        0.05,
        0.1,
        0.25,
        0.5,
        1,
        2.5,
        5,
        10
      ],
      "counts": [
        0,
        0,
        0,
        0,
        0,
        0,
        1,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0
      ]
    },
    "span_seconds.discovery.run": {
      "count": 1,
      "sum": 0.003,
      "mean": 0.003,
      "min": 0.003,
      "max": 0.003,
      "bounds": [
        0.00001,
        0.000025,
        0.00005,
        0.0001,
        0.00025,
        0.0005,
        0.001,
        0.0025,
        0.005,
        0.01,
        0.025,
        0.05,
        0.1,
        0.25,
        0.5,
        1,
        2.5,
        5,
        10
      ],
      "counts": [
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        1,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0
      ]
    }
  },
  "pruning": {
    "quality_below_tau": 1
  },
  "phases": [
    {
      "name": "discovery.run",
      "count": 1,
      "total_ns": 3000000,
      "max_ns": 3000000
    },
    {
      "name": "discovery.evaluate_join",
      "count": 1,
      "total_ns": 1000000,
      "max_ns": 1000000
    }
  ]
}`
	if string(metrics) != wantMetrics {
		t.Fatalf("metrics JSON drifted:\n--- got ---\n%s\n--- want ---\n%s", metrics, wantMetrics)
	}

	// Both documents must stay valid JSON under a strict decoder.
	for _, doc := range [][]byte{trace, metrics} {
		var any map[string]any
		if err := json.Unmarshal(doc, &any); err != nil {
			t.Fatalf("invalid JSON: %v\n%s", err, doc)
		}
	}
}

// TestJSONSinkRoundTrip checks that a live collector's snapshot survives
// a JSON round trip, as it does on the cluster telemetry wire.
func TestJSONSinkRoundTrip(t *testing.T) {
	c := New()
	c.Meter().Inc("x")
	b, err := json.Marshal(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["x"] != 1 {
		t.Fatalf("round trip lost counter: %+v", snap)
	}
}

// BenchmarkDisabledSpan measures the disabled-path cost every pipeline
// call site pays when telemetry is off: it must stay in the
// nanoseconds-per-op range so discovery overhead is <2%.
func BenchmarkDisabledSpan(b *testing.B) {
	var c *Collector
	tr := c.Trace()
	mx := c.Meter()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := tr.StartSpan(context.Background(), SpanJoinEval)
		sp.SetInt("matched", i)
		sp.End()
		mx.Inc(CtrPathsExplored)
	}
}

// BenchmarkEnabledSpan is the enabled-path counterpart, for overhead
// comparisons in perf PRs.
func BenchmarkEnabledSpan(b *testing.B) {
	c := New()
	tr := c.Trace()
	mx := c.Meter()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := tr.StartSpan(context.Background(), SpanJoinEval)
		sp.SetInt("matched", i)
		sp.End()
		mx.Inc(CtrPathsExplored)
	}
}

func TestMetricsConcurrentCounters(t *testing.T) {
	// Counters are the one metric the parallel join loop hammers from many
	// goroutines; they must be atomic and race-clean (run with -race).
	c := New()
	m := c.Meter()
	var wg sync.WaitGroup
	const workers, each = 8, 1000
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				m.Inc("conc.hits")
				m.Add("conc.bytes", 3)
				m.SetGauge("conc.gauge", float64(i))
				m.Observe("conc.hist", float64(i))
			}
		}()
	}
	wg.Wait()
	if got := m.Counter("conc.hits"); got != workers*each {
		t.Fatalf("hits = %d, want %d", got, workers*each)
	}
	if got := m.Counter("conc.bytes"); got != 3*workers*each {
		t.Fatalf("bytes = %d, want %d", got, 3*workers*each)
	}
	snap := c.Snapshot()
	if snap.Counters["conc.hits"] != workers*each {
		t.Fatalf("snapshot hits = %d", snap.Counters["conc.hits"])
	}
}
