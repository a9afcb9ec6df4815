package telemetry

// Tests for the context-propagated tracer: W3C traceparent round-trips,
// remote parent linking, concurrent trees over one shared tracer, exact
// span histograms past every retention cap, and the trace-store /
// flight-recorder observers.

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tr := NewTracer()
	_, sp := tr.StartSpan(context.Background(), "x")
	sc := sp.Context()
	if !sc.IsValid() {
		t.Fatalf("wall-clock tracer must mint valid IDs: %+v", sc)
	}
	header := sc.Traceparent()
	if len(header) != 55 || !strings.HasPrefix(header, "00-") {
		t.Fatalf("bad traceparent %q", header)
	}
	back, ok := ParseTraceparent(header)
	if !ok || back != sc {
		t.Fatalf("round trip failed: %q -> %+v (ok=%v)", header, back, ok)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	for _, bad := range []string{
		"",
		"00-abc-def-01",
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331",          // missing flags
		"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",       // reserved version
		"00-00000000000000000000000000000000-b7ad6b7169203331-01",       // zero trace
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",       // zero span
		"00-0af7651916cd43dd8448eb211c80319X-b7ad6b7169203331-01",       // non-hex
		"00x0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",       // bad separator
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra", // wrong length
		"00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01",       // upper-case hex
		"00-0af7651916cd43dd8448eb211c80319c-B7AD6B7169203331-01",       // upper-case hex
	} {
		if _, ok := ParseTraceparent(bad); ok {
			t.Errorf("ParseTraceparent(%q) accepted", bad)
		}
	}
	good := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	sc, ok := ParseTraceparent(good)
	if !ok || sc.Trace.String() != "0af7651916cd43dd8448eb211c80319c" || sc.Span.String() != "b7ad6b7169203331" {
		t.Fatalf("ParseTraceparent(%q) = %+v, %v", good, sc, ok)
	}
}

// FuzzParseTraceparent checks that no header panics the parser, that
// every accepted header re-emits as one that parses back to the same
// context, and that accepted headers are lower-case (the committed
// corpus under testdata/fuzz holds upper-case seeds that must fail).
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	f.Fuzz(func(t *testing.T, s string) {
		sc, ok := ParseTraceparent(s)
		if !ok {
			return
		}
		if strings.ToLower(s) != s {
			t.Fatalf("accepted upper-case header %q", s)
		}
		if back, ok := ParseTraceparent(sc.Traceparent()); !ok || back != sc {
			t.Fatalf("%q: re-emitted %q parses to %+v (ok=%v), want %+v", s, sc.Traceparent(), back, ok, sc)
		}
	})
}

func TestRemoteParent(t *testing.T) {
	tr, log := loggedTracer()
	remote, ok := ParseTraceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	if !ok {
		t.Fatal("parse failed")
	}
	ctx := ContextWithRemote(context.Background(), remote)
	if sc, ok := SpanContextFrom(ctx); !ok || sc != remote {
		t.Fatalf("SpanContextFrom = %+v, %v", sc, ok)
	}
	cctx, child := tr.StartSpan(ctx, "child")
	_, grand := tr.StartSpan(cctx, "grand")
	grand.End()
	child.End()
	spans := log.Spans()
	if spans[0].TraceID != remote.Trace.String() {
		t.Fatalf("child must join the remote trace: %+v", spans[0])
	}
	if spans[0].Parent != 0 || spans[0].ParentSpanID != remote.Span.String() {
		t.Fatalf("remote parent must link by span ID only: %+v", spans[0])
	}
	if spans[1].Parent != spans[0].ID || spans[1].ParentSpanID != spans[0].SpanID {
		t.Fatalf("grand must nest under child: %+v", spans[1])
	}
}

func TestConcurrentTracesShareOneTracer(t *testing.T) {
	// Two goroutine "jobs" interleave spans on one tracer; each must get
	// its own trace with correct parentage (the open-stack model this
	// tracer replaced corrupted exactly this case).
	tr := NewTracer()
	log := &SpanLog{}
	tr.AddObserver(log)
	const jobs, depth = 4, 16
	traces := make([]string, jobs)
	var wg sync.WaitGroup
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			ctx, root := tr.StartSpan(context.Background(), "job")
			traces[j] = root.Context().Trace.String()
			for i := 0; i < depth; i++ {
				cctx, sp := tr.StartSpan(ctx, "step")
				_, leaf := tr.StartSpan(cctx, "leaf")
				leaf.End()
				sp.End()
			}
			root.End()
		}(j)
	}
	wg.Wait()

	byTrace := map[string][]SpanRecord{}
	for _, rec := range log.Spans() {
		byTrace[rec.TraceID] = append(byTrace[rec.TraceID], rec)
	}
	if len(byTrace) != jobs {
		t.Fatalf("want %d traces, got %d", jobs, len(byTrace))
	}
	for _, id := range traces {
		spans := byTrace[id]
		if len(spans) != 1+2*depth {
			t.Fatalf("trace %s has %d spans, want %d", id, len(spans), 1+2*depth)
		}
		roots := BuildSpanTree(spans)
		if len(roots) != 1 || roots[0].Name != "job" {
			t.Fatalf("trace %s must form a single tree rooted at job: %d roots", id, len(roots))
		}
		if len(roots[0].Children) != depth {
			t.Fatalf("root has %d children, want %d", len(roots[0].Children), depth)
		}
		for _, step := range roots[0].Children {
			if step.Name != "step" || len(step.Children) != 1 || step.Children[0].Name != "leaf" {
				t.Fatalf("malformed subtree under %s: %+v", id, step)
			}
		}
	}
}

// TestPhasesExactPastEveryCap ends more spans than any retention cap in
// play — 281 traces (trace store: 256) of 250 spans (70250 in all;
// flight ring: 256) — and checks that the phase breakdown, read from the
// span histograms, still counts every span while the observers stay
// bounded.
func TestPhasesExactPastEveryCap(t *testing.T) {
	c := NewWithClock(fakeClock(time.Microsecond))
	store, flight := NewTraceStore(0, 0), NewFlightRecorder(0)
	c.ObserveSpans(store, flight)
	const traces, steps = DefaultMaxTraces + 25, 249
	for i := 0; i < traces; i++ {
		ctx, job := StartSpan(context.Background(), c, "job")
		for j := 0; j < steps; j++ {
			_, sp := StartSpan(ctx, c, "step")
			sp.End()
		}
		job.End()
	}

	phases := c.Snapshot().Phases()
	want := map[string]int{"job": traces, "step": traces * steps}
	if len(phases) != len(want) {
		t.Fatalf("phases = %+v, want %v", phases, want)
	}
	for _, p := range phases {
		if p.Count != want[p.Name] {
			t.Errorf("phase %s count = %d, want %d", p.Name, p.Count, want[p.Name])
		}
	}
	// Under the 1µs fake clock every step lasts 1µs and every job 2µs
	// per step plus 1µs, so the totals are exact too.
	if p := phases[0]; p.Name != "job" || p.Total != traces*(2*steps+1)*time.Microsecond {
		t.Errorf("job phase = %+v", p)
	}
	if store.Len() != DefaultMaxTraces {
		t.Errorf("trace store holds %d traces, want its cap %d", store.Len(), DefaultMaxTraces)
	}
	if spans, total := flight.Snapshot(); len(spans) != DefaultFlightCapacity || total != traces*(steps+1) {
		t.Errorf("flight ring holds %d of %d spans, want %d of %d", len(spans), total, DefaultFlightCapacity, traces*(steps+1))
	}
}

func TestTraceStoreBoundsAndSummaries(t *testing.T) {
	store := NewTraceStore(2, 2)
	rec := func(trace, span, parent, name string, start, dur int64) SpanRecord {
		return SpanRecord{TraceID: trace, SpanID: span, ParentSpanID: parent,
			Name: name, StartUS: start, DurUS: dur}
	}
	store.ObserveSpan(rec("t1", "s1", "", "root1", 0, 10))
	store.ObserveSpan(rec("t2", "s2", "", "root2", 5, 10))
	store.ObserveSpan(rec("t2", "s3", "s2", "kid", 7, 1))
	store.ObserveSpan(rec("t2", "s4", "s2", "kid2", 8, 1)) // over per-trace cap
	store.ObserveSpan(rec("t3", "s5", "", "root3", 0, 1))  // evicts t1
	store.ObserveSpan(SpanRecord{Name: "no-trace"})        // ignored

	if store.Len() != 2 {
		t.Fatalf("store holds %d traces, want 2", store.Len())
	}
	if store.Spans("t1") != nil {
		t.Fatal("t1 must have been evicted")
	}
	sums := store.Summaries()
	if len(sums) != 2 || sums[0].TraceID != "t2" || sums[1].TraceID != "t3" {
		t.Fatalf("summaries wrong: %+v", sums)
	}
	if sums[0].Spans != 2 || sums[0].Dropped != 1 || sums[0].Root != "root2" {
		t.Fatalf("t2 summary wrong: %+v", sums[0])
	}
	if sums[0].DurationUS != 15-5 {
		t.Fatalf("t2 duration = %d, want 10", sums[0].DurationUS)
	}
}

func TestBuildSpanTreeOrphans(t *testing.T) {
	spans := []SpanRecord{
		{ID: 2, SpanID: "b", ParentSpanID: "a", Name: "child", StartUS: 5},
		{ID: 1, SpanID: "a", Name: "root", StartUS: 0},
		{ID: 3, SpanID: "c", ParentSpanID: "missing", Name: "orphan", StartUS: 1},
	}
	roots := BuildSpanTree(spans)
	if len(roots) != 2 {
		t.Fatalf("want 2 roots (true root + orphan), got %d", len(roots))
	}
	if roots[0].Name != "root" || roots[1].Name != "orphan" {
		t.Fatalf("root order wrong: %s, %s", roots[0].Name, roots[1].Name)
	}
	if len(roots[0].Children) != 1 || roots[0].Children[0].Name != "child" {
		t.Fatalf("child not attached: %+v", roots[0])
	}
}

func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(3)
	if f.Cap() != 3 {
		t.Fatalf("cap = %d", f.Cap())
	}
	for i := 1; i <= 5; i++ {
		f.ObserveSpan(SpanRecord{ID: i})
	}
	spans, total := f.Snapshot()
	if total != 5 {
		t.Fatalf("total = %d, want 5", total)
	}
	if len(spans) != 3 || spans[0].ID != 3 || spans[2].ID != 5 {
		t.Fatalf("ring contents wrong: %+v", spans)
	}
	var nilRec *FlightRecorder
	nilRec.ObserveSpan(SpanRecord{})
	if s, n := nilRec.Snapshot(); s != nil || n != 0 || nilRec.Cap() != 0 {
		t.Fatal("nil recorder must be inert")
	}
}

func TestStartSpanNilSafety(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.StartSpan(nil, "x") //nolint:staticcheck // nil ctx tolerated by design
	if ctx == nil {
		t.Fatal("nil tracer must still return a usable context")
	}
	if sp.Context().IsValid() {
		t.Fatal("no-op span must carry no identity")
	}
	sp.End()
	var c *Collector
	c.ObserveSpans(NewTraceStore(0, 0))
	ctx2, sp2 := StartSpan(context.Background(), c, "y")
	if ctx2 == nil || sp2.End() != 0 {
		t.Fatal("package-level StartSpan must degrade on nil collector")
	}
	if _, ok := SpanContextFrom(nil); ok { //nolint:staticcheck // nil ctx tolerated by design
		t.Fatal("SpanContextFrom(nil) must report none")
	}
	if got := ContextWithRemote(nil, SpanContext{}); got == nil { //nolint:staticcheck // nil ctx tolerated by design
		t.Fatal("ContextWithRemote(nil, zero) must return a context")
	}
}
