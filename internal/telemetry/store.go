package telemetry

import (
	"sort"
	"sync"
)

// TraceStore is a bounded in-memory index of finished spans grouped by
// trace ID — the backing store of the service's GET /v1/traces
// endpoints. It implements SpanObserver; attach it with
// Collector.ObserveSpans. When the trace cap is hit the oldest trace
// (first-seen order) is evicted whole; within one trace, spans past the
// per-trace cap are counted but not retained.
type TraceStore struct {
	mu       sync.Mutex
	maxSpans int // per trace
	traces   map[string]*storedTrace
	order    ring[string] // trace IDs in first-seen order; its capacity is the trace cap
}

// storedTrace is one trace's retained spans.
type storedTrace struct {
	spans   []SpanRecord
	dropped int
}

// DefaultMaxTraces and DefaultMaxTraceSpans are the TraceStore bounds
// used when NewTraceStore is given non-positive values.
const (
	DefaultMaxTraces     = 256
	DefaultMaxTraceSpans = 4096
)

// NewTraceStore returns a store retaining at most maxTraces traces of
// at most maxSpansPerTrace spans each (non-positive values use the
// defaults).
func NewTraceStore(maxTraces, maxSpansPerTrace int) *TraceStore {
	if maxTraces <= 0 {
		maxTraces = DefaultMaxTraces
	}
	if maxSpansPerTrace <= 0 {
		maxSpansPerTrace = DefaultMaxTraceSpans
	}
	return &TraceStore{
		maxSpans: maxSpansPerTrace,
		traces:   map[string]*storedTrace{},
		order:    newRing[string](maxTraces),
	}
}

// ObserveSpan implements SpanObserver: file the finished span under its
// trace. Spans without a trace ID (legacy Start callers) are ignored.
func (ts *TraceStore) ObserveSpan(rec SpanRecord) {
	if ts == nil || rec.TraceID == "" {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	tr := ts.traces[rec.TraceID]
	if tr == nil {
		if oldest, evicted := ts.order.push(rec.TraceID); evicted {
			delete(ts.traces, oldest)
		}
		tr = &storedTrace{}
		ts.traces[rec.TraceID] = tr
	}
	if len(tr.spans) >= ts.maxSpans {
		tr.dropped++
		return
	}
	tr.spans = append(tr.spans, rec)
}

// Len returns the number of retained traces.
func (ts *TraceStore) Len() int {
	if ts == nil {
		return 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.traces)
}

// TraceSummary is one row of the GET /v1/traces listing.
type TraceSummary struct {
	// TraceID is the 32-hex-digit trace identity.
	TraceID string `json:"trace_id"`
	// Spans counts the retained spans; Dropped counts spans past the
	// per-trace cap (omitted when zero).
	Spans   int `json:"spans"`
	Dropped int `json:"dropped,omitempty"`
	// Root is the name of the first root span seen (no parent span ID),
	// falling back to the first span's name.
	Root string `json:"root,omitempty"`
	// DurationUS is the maximum span end offset minus the minimum start
	// offset across the trace — the trace's wall-clock footprint.
	DurationUS int64 `json:"duration_us"`
}

// Summaries lists the retained traces in first-seen order.
func (ts *TraceStore) Summaries() []TraceSummary {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ids := ts.order.items()
	out := make([]TraceSummary, 0, len(ids))
	for _, id := range ids {
		tr := ts.traces[id]
		s := TraceSummary{TraceID: id, Spans: len(tr.spans), Dropped: tr.dropped}
		var minStart, maxEnd int64
		for i, rec := range tr.spans {
			end := rec.StartUS
			if rec.DurUS > 0 {
				end += rec.DurUS
			}
			if i == 0 || rec.StartUS < minStart {
				minStart = rec.StartUS
			}
			if i == 0 || end > maxEnd {
				maxEnd = end
			}
			if s.Root == "" && rec.ParentSpanID == "" {
				s.Root = rec.Name
			}
		}
		if s.Root == "" && len(tr.spans) > 0 {
			s.Root = tr.spans[0].Name
		}
		s.DurationUS = maxEnd - minStart
		out = append(out, s)
	}
	return out
}

// Spans returns a copy of the retained spans of one trace, nil when the
// trace is unknown.
func (ts *TraceStore) Spans(traceID string) []SpanRecord {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	tr := ts.traces[traceID]
	if tr == nil {
		return nil
	}
	return append([]SpanRecord(nil), tr.spans...)
}

// SpanNode is one node of the span tree rendered at /v1/traces/{id}.
type SpanNode struct {
	SpanRecord
	// Children are the node's child spans, ordered by start offset.
	Children []*SpanNode `json:"children,omitempty"`
}

// BuildSpanTree assembles spans (one trace's records, any order) into a
// forest linked by SpanID/ParentSpanID. Spans whose parent is unknown —
// true roots, spans below a remote parent, or spans whose parent was
// dropped — become roots. Siblings are ordered by start offset, then by
// record ID.
func BuildSpanTree(spans []SpanRecord) []*SpanNode {
	nodes := make([]*SpanNode, len(spans))
	byID := make(map[string]*SpanNode, len(spans))
	for i, rec := range spans {
		nodes[i] = &SpanNode{SpanRecord: rec}
		if rec.SpanID != "" {
			byID[rec.SpanID] = nodes[i]
		}
	}
	var roots []*SpanNode
	for _, n := range nodes {
		if parent := byID[n.ParentSpanID]; n.ParentSpanID != "" && parent != nil && parent != n {
			parent.Children = append(parent.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	sortNodes(roots)
	for _, n := range nodes {
		sortNodes(n.Children)
	}
	return roots
}

// sortNodes orders sibling spans by start offset, breaking ties by
// record ID.
func sortNodes(ns []*SpanNode) {
	sort.SliceStable(ns, func(i, j int) bool {
		if ns[i].StartUS != ns[j].StartUS {
			return ns[i].StartUS < ns[j].StartUS
		}
		return ns[i].ID < ns[j].ID
	})
}
