package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"autofeat/internal/telemetry"
)

// span is one timed interval of a traced run. Bench spans are recorded
// by the benchmark around a call into the system; program spans are the
// ones the program records itself, observed in-process or read back from
// the server's trace endpoint. Start offsets use the clock of the process
// that recorded the span. The children of one span always come from one
// process, and the length of a union of intervals does not depend on
// their clock's origin, so self time never needs the clocks aligned.
type span struct {
	Name    string `json:"name"`
	Source  string `json:"source"`
	Trace   string `json:"trace_id"`
	ID      string `json:"span_id"`
	Parent  string `json:"parent_span_id,omitempty"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
}

// recorder keeps the spans of one traced run in memory. A nil recorder
// is an untraced run: start returns nil and every span method is a no-op.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	run   uint64 // high half of every trace ID, distinct per run
	next  uint64
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), run: uint64(time.Now().UnixNano())}
}

// newTrace returns a fresh W3C trace ID (32 hex digits).
func (r *recorder) newTrace() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return fmt.Sprintf("%016x%016x", r.run, r.next)
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
}

// ObserveSpan implements telemetry.SpanObserver for in-process runs. The
// root package exports the collector (autofeat.Telemetry) but not the
// span record its observers receive, nor a way to hand a caller's span to
// an in-process call; those two come from internal/telemetry. Served
// jobs need neither: they take the caller's span as a traceparent header.
func (r *recorder) ObserveSpan(rec telemetry.SpanRecord) {
	r.add(span{
		Name: rec.Name, Source: "program",
		Trace: rec.TraceID, ID: rec.SpanID, Parent: rec.ParentSpanID,
		StartUS: rec.StartUS, DurUS: rec.DurUS,
	})
}

// collector returns a fresh collector whose finished spans land in r, or
// nil (collection off) for an untraced run.
func (r *recorder) collector() *telemetry.Collector {
	if r == nil {
		return nil
	}
	tel := telemetry.New()
	tel.ObserveSpans(r)
	return tel
}

// openSpan is a bench span in flight.
type openSpan struct {
	r  *recorder
	s  span
	t0 time.Time
}

// start opens a bench span named name in the given trace.
func (r *recorder) start(name, trace string) *openSpan {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.next++
	id := fmt.Sprintf("%016x", r.next)
	r.mu.Unlock()
	now := time.Now()
	return &openSpan{r: r, t0: now, s: span{
		Name: name, Source: "bench", Trace: trace, ID: id,
		StartUS: now.Sub(r.epoch).Microseconds(),
	}}
}

func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.s.DurUS = time.Since(o.t0).Microseconds()
	o.r.add(o.s)
}

// traceparent is the W3C header that makes the program's spans children
// of this one ("" when untraced).
func (o *openSpan) traceparent() string {
	if o == nil {
		return ""
	}
	return "00-" + o.s.Trace + "-" + o.s.ID + "-01"
}

// context carries the span into an in-process call, as an inbound
// traceparent would.
func (o *openSpan) context(ctx context.Context) context.Context {
	if o == nil {
		return ctx
	}
	sc, _ := telemetry.ParseTraceparent(o.traceparent())
	return telemetry.ContextWithRemote(ctx, sc)
}

// traceNode is one node of a GET /v1/traces/{id} span tree.
type traceNode struct {
	Name     string      `json:"name"`
	TraceID  string      `json:"trace_id"`
	SpanID   string      `json:"span_id"`
	Parent   string      `json:"parent_span_id"`
	StartUS  int64       `json:"start_us"`
	DurUS    int64       `json:"dur_us"`
	Children []traceNode `json:"children"`
}

// addTree adds a server trace's spans to r.
func (r *recorder) addTree(roots []traceNode) {
	for _, n := range roots {
		r.add(span{Name: n.Name, Source: "program", Trace: n.TraceID, ID: n.SpanID, Parent: n.Parent, StartUS: n.StartUS, DurUS: n.DurUS})
		r.addTree(n.Children)
	}
}

func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(map[string]any{"spans": r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerSpans are the spans the traced run reports, one or more per
// module: bench spans around each public call (lake.*, core.*, http.*)
// and the program's own spans below them.
var layerSpans = []string{
	"lake.open", "lake.drg", "core.run", "core.evaluate",
	"discovery.evaluate_join", "relational.left_join",
	"fselect.relevance", "fselect.redundancy",
	"discovery.materialize", "ml.train_eval",
	"serve.http", "serve.job", "serve.queue_wait",
	"http.submit", "http.poll", "http.upsert",
}

// layerMetrics reports count, total, self time and the p50 and p99
// durations of every span in layerSpans. Self time is a span's duration
// minus the union of its children's intervals.
func (r *recorder) layerMetrics() map[string]metric {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	kids := map[string][]span{}
	for _, s := range spans {
		if s.Parent != "" {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	durs, selfs := map[string][]float64{}, map[string][]float64{}
	for _, s := range spans {
		if s.DurUS < 0 {
			continue
		}
		self := s.DurUS - covered(kids[s.ID])
		if self < 0 {
			self = 0
		}
		durs[s.Name] = append(durs[s.Name], float64(s.DurUS)/1e6)
		selfs[s.Name] = append(selfs[s.Name], float64(self)/1e6)
	}
	out := map[string]metric{}
	for _, name := range layerSpans {
		d := durs[name]
		out[name+".count"] = metric{float64(len(d)), "count"}
		out[name+".total_s"] = metric{sum(d), "s"}
		out[name+".self_s"] = metric{sum(selfs[name]), "s"}
		out[name+".p50_s"] = metric{percentile(d, 0.50), "s"}
		out[name+".p99_s"] = metric{percentile(d, 0.99), "s"}
	}
	return out
}

// covered returns the length in microseconds of the union of the spans'
// intervals.
func covered(spans []span) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		if s.DurUS >= 0 {
			iv = append(iv, [2]int64{s.StartUS, s.StartUS + s.DurUS})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, lo, hi int64
	for i, x := range iv {
		switch {
		case i == 0:
			lo, hi = x[0], x[1]
		case x[0] > hi:
			total += hi - lo
			lo, hi = x[0], x[1]
		case x[1] > hi:
			hi = x[1]
		}
	}
	return total + hi - lo
}
