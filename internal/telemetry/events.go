package telemetry

import (
	"log/slog"
	"sync"
	"time"
)

// DefaultEventLogSize is the ring capacity used when NewEventLog is
// given a non-positive capacity.
const DefaultEventLogSize = 256

// Event is one structured entry in the cluster event journal: a
// membership or scheduling transition worth surfacing to operators
// (worker join/death, job reroute, dispatch retry, quota rejection,
// retention eviction). Type is one of the Event* constants.
type Event struct {
	Seq        int64  `json:"seq"`
	TimeUnixMS int64  `json:"time_unix_ms"`
	Type       string `json:"type"`
	Node       string `json:"node,omitempty"`
	Job        string `json:"job,omitempty"`
	Detail     string `json:"detail,omitempty"`
}

// EventLog is a bounded ring of cluster events: Record appends (evicting
// the oldest entry past capacity) and mirrors each event to slog, Events
// returns the retained window oldest-first. All methods are safe for
// concurrent use and nil-receiver safe, matching the rest of the
// telemetry layer.
type EventLog struct {
	mu     sync.Mutex
	ring   ring[Event] // ring.total is the last sequence number issued
	logger *slog.Logger
	clock  func() time.Time
}

// NewEventLog returns an event log retaining at most capacity entries
// (DefaultEventLogSize when capacity <= 0), mirroring each recorded
// event to logger (may be nil: no mirroring).
func NewEventLog(capacity int, logger *slog.Logger) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventLogSize
	}
	return &EventLog{ring: newRing[Event](capacity), logger: logger, clock: time.Now}
}

// SetClock replaces the wall-clock source used to stamp events —
// deterministic timestamps for tests. A nil log ignores the call.
func (l *EventLog) SetClock(now func() time.Time) {
	if l == nil || now == nil {
		return
	}
	l.mu.Lock()
	l.clock = now
	l.mu.Unlock()
}

// Record stamps the event with the next sequence number (and the
// current time, unless TimeUnixMS is already set), appends it to the
// ring, and mirrors it to the log's slog logger. A nil log drops the
// event.
func (l *EventLog) Record(e Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	e.Seq = l.ring.total + 1
	if e.TimeUnixMS == 0 {
		e.TimeUnixMS = l.clock().UnixMilli()
	}
	l.ring.push(e)
	logger := l.logger
	l.mu.Unlock()

	if logger != nil {
		attrs := []any{"seq", e.Seq, "type", e.Type}
		if e.Node != "" {
			attrs = append(attrs, "node", e.Node)
		}
		if e.Job != "" {
			attrs = append(attrs, "job", e.Job)
		}
		if e.Detail != "" {
			attrs = append(attrs, "detail", e.Detail)
		}
		logger.Info("cluster event", attrs...)
	}
}

// Events returns the retained window, oldest first. A nil log returns
// nil.
func (l *EventLog) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.items()
}

// Len reports how many events the ring currently retains.
func (l *EventLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.n
}

// Total reports how many events were ever recorded, including entries
// the ring has since evicted.
func (l *EventLog) Total() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.total
}
