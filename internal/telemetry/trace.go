package telemetry

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span. Values are whatever the
// caller set (string, int64, float64) and marshal directly to JSON.
type Attr struct {
	Key   string `json:"k"`
	Value any    `json:"v"`
}

// SpanRecord is one finished (or still-open) span. Times are offsets
// from the tracer's epoch in microseconds, so a trace is self-contained
// and diffable under an injected clock.
type SpanRecord struct {
	// ID is 1-based in start order; Parent is the enclosing span's ID,
	// 0 for roots and for spans whose parent lives in another tracer
	// (a remote traceparent).
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	// TraceID and SpanID are the W3C-style hex identities of the span
	// (32 and 16 hex digits); ParentSpanID is the parent's span ID, set
	// even when the parent is remote. All three are omitted for spans
	// recorded through the legacy ID-only constructors in tests.
	TraceID      string `json:"trace_id,omitempty"`
	SpanID       string `json:"span_id,omitempty"`
	ParentSpanID string `json:"parent_span_id,omitempty"`
	// StartUS is the start offset from the trace epoch; DurUS is the
	// span duration (-1 while the span is still open).
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// TraceID is a 128-bit W3C trace identity; the zero value is invalid.
type TraceID [16]byte

// IsValid reports whether the trace ID is non-zero.
func (id TraceID) IsValid() bool { return id != TraceID{} }

// String renders the trace ID as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// SpanID is a 64-bit W3C span identity; the zero value is invalid.
type SpanID [8]byte

// IsValid reports whether the span ID is non-zero.
func (id SpanID) IsValid() bool { return id != SpanID{} }

// String renders the span ID as 16 lowercase hex digits.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// SpanContext is the propagated identity of a span: which trace it
// belongs to and which span it is. It is what crosses process
// boundaries via the traceparent header and what links child spans to
// parents across goroutines.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// IsValid reports whether both halves of the context are non-zero.
func (sc SpanContext) IsValid() bool { return sc.Trace.IsValid() && sc.Span.IsValid() }

// Traceparent renders the context as a W3C traceparent header value
// (version 00, sampled flag set).
func (sc SpanContext) Traceparent() string {
	return "00-" + sc.Trace.String() + "-" + sc.Span.String() + "-01"
}

// ParseTraceparent parses a W3C traceparent header value
// ("00-<32 hex>-<16 hex>-<2 hex>", lower-case hex only). It accepts any
// version except the reserved "ff" and rejects all-zero trace or span
// IDs, per the spec.
func ParseTraceparent(s string) (SpanContext, bool) {
	if len(s) != 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return SpanContext{}, false
	}
	var version, flags [1]byte
	var sc SpanContext
	if !decodeLowerHex(version[:], s[0:2]) || version[0] == 0xff ||
		!decodeLowerHex(sc.Trace[:], s[3:35]) ||
		!decodeLowerHex(sc.Span[:], s[36:52]) ||
		!decodeLowerHex(flags[:], s[53:55]) || !sc.IsValid() {
		return SpanContext{}, false
	}
	return sc, true
}

// decodeLowerHex decodes s into dst, rejecting upper-case digits (which
// encoding/hex would accept) as W3C trace-context requires.
func decodeLowerHex(dst []byte, s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	_, err := hex.Decode(dst, []byte(s))
	return err == nil
}

// spanKey is the private context key carrying the current span.
type spanKey struct{}

// spanRef is the context payload: the propagated identity plus, for
// local spans, the numeric record ID and owning tracer so children in
// the same tracer can link by record ID too.
type spanRef struct {
	sc SpanContext
	id int     // numeric record ID in t; 0 for remote parents
	t  *Tracer // nil for remote parents
}

// ContextWithRemote returns a context carrying sc as the current span,
// e.g. a parent parsed from an inbound traceparent header. Spans
// started from the returned context join sc's trace.
func ContextWithRemote(ctx context.Context, sc SpanContext) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	if !sc.IsValid() {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, spanRef{sc: sc})
}

// SpanContextFrom returns the current span context carried by ctx, ok
// false when ctx carries none.
func SpanContextFrom(ctx context.Context) (SpanContext, bool) {
	if ctx == nil {
		return SpanContext{}, false
	}
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	if !ok || !ref.sc.IsValid() {
		return SpanContext{}, false
	}
	return ref.sc, true
}

// SpanObserver receives a copy of every span as it ends. Observers run
// outside the tracer lock and must be safe for concurrent use; the
// trace store and flight recorder implement this.
type SpanObserver interface {
	ObserveSpan(SpanRecord)
}

// Tracer records spans with context-propagated parent attribution:
// StartSpan derives the parent from the caller's context, so concurrent
// jobs sharing one tracer each build a correctly-parented tree. The
// tracer keeps no span after End: it hands the finished record to its
// observers and, when bound to a registry (New, NewWithClock), records
// the duration into that span name's histogram. A nil *Tracer is a
// valid disabled tracer: StartSpan returns the context unchanged and a
// no-op Span.
type Tracer struct {
	mu        sync.Mutex
	now       func() time.Time
	epoch     time.Time
	nextID    int
	observers []SpanObserver
	metrics   *Metrics // receives span_seconds.<name>; nil = none

	// ID source: deterministic counters under an injected clock (golden
	// tests), a splitmix64 stream seeded from crypto/rand otherwise.
	deterministic bool
	seqTrace      uint64
	seqSpan       uint64
	rngState      uint64
}

// NewTracer returns a tracer on the wall clock with random trace/span
// IDs.
func NewTracer() *Tracer {
	t := &Tracer{now: time.Now, epoch: time.Now()}
	var seed [8]byte
	if _, err := crand.Read(seed[:]); err == nil {
		t.rngState = binary.LittleEndian.Uint64(seed[:])
	} else {
		t.rngState = uint64(time.Now().UnixNano())
	}
	return t
}

// NewTracerWithClock returns a tracer reading time from now; inject a
// fake clock for deterministic traces in tests. Trace and span IDs are
// sequential counters so golden outputs stay byte-stable.
func NewTracerWithClock(now func() time.Time) *Tracer {
	return &Tracer{now: now, epoch: now(), deterministic: true}
}

// rand64 steps the tracer's splitmix64 stream; call under t.mu.
func (t *Tracer) rand64() uint64 {
	t.rngState += 0x9e3779b97f4a7c15
	z := t.rngState
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// newTraceID mints a fresh trace ID; call under t.mu.
func (t *Tracer) newTraceID() TraceID {
	var id TraceID
	if t.deterministic {
		t.seqTrace++
		binary.BigEndian.PutUint64(id[8:], t.seqTrace)
		return id
	}
	for !id.IsValid() {
		binary.BigEndian.PutUint64(id[:8], t.rand64())
		binary.BigEndian.PutUint64(id[8:], t.rand64())
	}
	return id
}

// newSpanID mints a fresh span ID; call under t.mu.
func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	if t.deterministic {
		t.seqSpan++
		binary.BigEndian.PutUint64(id[:], t.seqSpan)
		return id
	}
	for !id.IsValid() {
		binary.BigEndian.PutUint64(id[:], t.rand64())
	}
	return id
}

// AddObserver registers o to receive a copy of every span when it ends.
func (t *Tracer) AddObserver(o SpanObserver) {
	if t == nil || o == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.observers = append(t.observers, o)
}

// Span is a lightweight handle on an open span; it owns the span's
// record until End hands it to the observers. The zero Span (from a nil
// tracer) ignores every call.
type Span struct {
	t   *Tracer
	rec *SpanRecord
	sc  SpanContext
}

// Context returns the span's propagated identity (zero for a no-op
// span).
func (s Span) Context() SpanContext { return s.sc }

// StartSpan opens a span named name as a child of the span carried by
// ctx (local or remote) and returns a derived context carrying the new
// span, so callees parented from it attach below it. With no span in
// ctx a new trace is started. Nil tracer: ctx is returned unchanged
// with a no-op Span.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, Span) {
	if ctx == nil {
		ctx = context.Background()
	}
	if t == nil {
		return ctx, Span{}
	}
	parent, _ := ctx.Value(spanKey{}).(spanRef)

	t.mu.Lock()
	var sc SpanContext
	if parent.sc.Trace.IsValid() {
		sc.Trace = parent.sc.Trace
	} else {
		sc.Trace = t.newTraceID()
	}
	sc.Span = t.newSpanID()
	t.nextID++
	rec := &SpanRecord{
		ID:      t.nextID,
		Name:    name,
		TraceID: sc.Trace.String(),
		SpanID:  sc.Span.String(),
		StartUS: t.now().Sub(t.epoch).Microseconds(),
		DurUS:   -1,
	}
	if parent.t == t && parent.id > 0 {
		rec.Parent = parent.id
	}
	if parent.sc.Span.IsValid() {
		rec.ParentSpanID = parent.sc.Span.String()
	}
	t.mu.Unlock()

	return context.WithValue(ctx, spanKey{}, spanRef{sc: sc, id: rec.ID, t: t}), Span{t: t, rec: rec, sc: sc}
}

// StartSpan opens a span on c's tracer — the package-level convenience
// the pipeline uses: ctx2, sp := telemetry.StartSpan(ctx, c, name).
// Both a nil collector and a nil tracer degrade to a no-op.
func StartSpan(ctx context.Context, c *Collector, name string) (context.Context, Span) {
	return c.Trace().StartSpan(ctx, name)
}

// SetStr annotates the span with a string attribute.
func (s Span) SetStr(key, v string) { s.set(key, v) }

// SetInt annotates the span with an integer attribute.
func (s Span) SetInt(key string, v int) { s.set(key, int64(v)) }

// SetFloat annotates the span with a float attribute.
func (s Span) SetFloat(key string, v float64) { s.set(key, v) }

// set appends an attribute; annotations after End are ignored, so the
// record observers received is never mutated.
func (s Span) set(key string, v any) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if s.rec.DurUS < 0 {
		s.rec.Attrs = append(s.rec.Attrs, Attr{Key: key, Value: v})
	}
}

// End closes the span, records its duration into the
// span_seconds.<name> histogram, hands the finished record to every
// observer and returns the duration (0 for a no-op span, or when the
// span was already ended). Ending out of creation order is fine:
// parentage was fixed at StartSpan from the context, so sibling and
// overlapping spans never corrupt each other's attribution.
func (s Span) End() time.Duration {
	if s.t == nil {
		return 0
	}
	t := s.t
	t.mu.Lock()
	if s.rec.DurUS >= 0 {
		t.mu.Unlock()
		return 0
	}
	s.rec.DurUS = t.now().Sub(t.epoch).Microseconds() - s.rec.StartUS
	done := *s.rec
	observers := t.observers
	t.mu.Unlock()
	d := time.Duration(done.DurUS) * time.Microsecond
	t.metrics.Observe(HistSpanSecondsPrefix+done.Name, d.Seconds())
	for _, o := range observers {
		o.ObserveSpan(done)
	}
	return d
}
