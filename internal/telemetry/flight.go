package telemetry

import "sync"

// FlightRecorder is a fixed-size ring buffer of the most recent
// finished spans — the postmortem capture dumped at /debug/flight. It
// implements SpanObserver; attach it with Collector.ObserveSpans.
// Unlike the TraceStore it keeps spans regardless of trace membership,
// so the last moments before a crash are visible even for untraced
// work.
type FlightRecorder struct {
	mu   sync.Mutex
	ring ring[SpanRecord]
}

// DefaultFlightCapacity is the ring size used when NewFlightRecorder is
// given a non-positive capacity.
const DefaultFlightCapacity = 256

// NewFlightRecorder returns a recorder keeping the last capacity spans
// (non-positive uses DefaultFlightCapacity).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &FlightRecorder{ring: newRing[SpanRecord](capacity)}
}

// ObserveSpan implements SpanObserver: append the span, overwriting the
// oldest once the ring is full.
func (f *FlightRecorder) ObserveSpan(rec SpanRecord) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ring.push(rec)
}

// Cap returns the ring capacity.
func (f *FlightRecorder) Cap() int {
	if f == nil {
		return 0
	}
	return len(f.ring.buf)
}

// Snapshot returns the retained spans oldest-first plus the total
// number of spans ever recorded (total - len(spans) have been
// overwritten).
func (f *FlightRecorder) Snapshot() ([]SpanRecord, int64) {
	if f == nil {
		return nil, 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ring.items(), f.ring.total
}
