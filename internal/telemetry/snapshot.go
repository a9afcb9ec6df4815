package telemetry

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Snapshot is a point-in-time capture of a Collector's metrics
// registry. Its JSON encoding is the snapshot a cluster worker serves
// on /cluster/v1/telemetry; WriteMetricsFile and the Prometheus
// renderer read it too.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Pruning collects the "discovery.pruned.<reason>" counters into one
// reason -> count breakdown. Reasons never incremented are absent.
func (s *Snapshot) Pruning() map[string]int64 {
	out := map[string]int64{}
	for name, v := range s.Counters {
		if strings.HasPrefix(name, CtrPrunedPrefix) {
			out[strings.TrimPrefix(name, CtrPrunedPrefix)] = v
		}
	}
	return out
}

// PhaseStat aggregates every ended span sharing one name.
type PhaseStat struct {
	Name  string        `json:"name"`
	Count int           `json:"count"`
	Total time.Duration `json:"total_ns"`
	Max   time.Duration `json:"max_ns"`
}

// Mean returns the average span duration for the phase.
func (p PhaseStat) Mean() time.Duration {
	if p.Count == 0 {
		return 0
	}
	return p.Total / time.Duration(p.Count)
}

// Phases reads the span_seconds.<span> histograms as the per-phase
// cost breakdown of a run: count, total and max duration per span name,
// ordered by descending total time, ties broken by name. Span durations
// are whole microseconds, so totals are rounded back to them.
func (s *Snapshot) Phases() []PhaseStat {
	var out []PhaseStat
	for name, h := range s.Histograms {
		if span, ok := strings.CutPrefix(name, HistSpanSecondsPrefix); ok && h.Count > 0 {
			out = append(out, PhaseStat{Name: span, Count: int(h.Count),
				Total: time.Duration(math.Round(h.Sum*1e6)) * time.Microsecond,
				Max:   time.Duration(math.Round(h.Max*1e6)) * time.Microsecond})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// SpanLog is an unbounded SpanObserver that keeps every finished span:
// the source of a one-shot run's -trace-out file, and of tests that
// inspect span parentage. Long-lived processes attach the bounded
// TraceStore and FlightRecorder instead. The zero value is ready to use.
type SpanLog struct {
	mu    sync.Mutex
	spans []SpanRecord
}

// ObserveSpan implements SpanObserver.
func (l *SpanLog) ObserveSpan(rec SpanRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, rec)
}

// Spans returns a copy of the recorded spans in start order (ascending
// ID).
func (l *SpanLog) Spans() []SpanRecord {
	l.mu.Lock()
	out := append([]SpanRecord(nil), l.spans...)
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// metricsDoc is the --metrics-out file layout: the registry plus the
// pruning breakdown and per-phase aggregates as convenience views.
type metricsDoc struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Pruning    map[string]int64             `json:"pruning"`
	Phases     []PhaseStat                  `json:"phases,omitempty"`
}

// MetricsJSON marshals counters, gauges, histograms, the pruning-reason
// breakdown and per-phase durations (the --metrics-out format).
func (s *Snapshot) MetricsJSON() ([]byte, error) {
	return json.MarshalIndent(metricsDoc{
		Counters:   s.Counters,
		Gauges:     s.Gauges,
		Histograms: s.Histograms,
		Pruning:    s.Pruning(),
		Phases:     s.Phases(),
	}, "", "  ")
}

// WriteTraceFile writes the span log to path as an indented
// {"spans": [...]} document (the --trace-out format).
func WriteTraceFile(path string, l *SpanLog) error {
	b, err := json.MarshalIndent(map[string][]SpanRecord{"spans": l.Spans()}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// WriteMetricsFile writes the snapshot's MetricsJSON to path.
func WriteMetricsFile(path string, s *Snapshot) error {
	b, err := s.MetricsJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
