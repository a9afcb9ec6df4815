package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Snapshot is a point-in-time capture of a Collector's metrics
// registry. It is the unit every sink consumes.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Pruning collects the "discovery.pruned.<reason>" counters into one
// reason -> count breakdown (the per-reason replacement for the old
// lumped PathsPruned). Reasons never incremented are absent.
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

// Sink consumes one snapshot at the end of a run.
type Sink interface {
	Flush(*Snapshot) error
}

// NopSink discards the snapshot — the default when telemetry is enabled
// only for programmatic inspection.
type NopSink struct{}

// Flush implements Sink by doing nothing.
func (NopSink) Flush(*Snapshot) error { return nil }

// JSONSink writes the full snapshot as indented JSON.
type JSONSink struct{ W io.Writer }

// Flush implements Sink.
func (s JSONSink) Flush(snap *Snapshot) error {
	b, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	_, err = s.W.Write(append(b, '\n'))
	return err
}

// ReportSink renders a human-readable run report: per-phase durations,
// the pruning breakdown and every counter/gauge summary, plus the
// histograms other than the span_seconds family shown as phases.
type ReportSink struct{ W io.Writer }

// Flush implements Sink.
func (s ReportSink) Flush(snap *Snapshot) error {
	w := s.W
	fmt.Fprintln(w, "=== telemetry report ===")
	if phases := snap.Phases(); len(phases) > 0 {
		fmt.Fprintln(w, "phases (by total time):")
		fmt.Fprintf(w, "  %-28s %8s %12s %12s %12s\n", "span", "count", "total", "mean", "max")
		for _, p := range phases {
			fmt.Fprintf(w, "  %-28s %8d %12v %12v %12v\n",
				p.Name, p.Count, p.Total.Round(time.Microsecond),
				p.Mean().Round(time.Microsecond), p.Max.Round(time.Microsecond))
		}
	}
	if pruning := snap.Pruning(); len(pruning) > 0 {
		fmt.Fprintln(w, "pruning breakdown:")
		for _, k := range sortedKeys(pruning) {
			fmt.Fprintf(w, "  %-28s %8d\n", k, pruning[k])
		}
	}
	if len(snap.Counters) > 0 {
		fmt.Fprintln(w, "counters:")
		for _, k := range sortedKeys(snap.Counters) {
			fmt.Fprintf(w, "  %-28s %8d\n", k, snap.Counters[k])
		}
	}
	if len(snap.Gauges) > 0 {
		fmt.Fprintln(w, "gauges:")
		for _, k := range sortedKeys(snap.Gauges) {
			fmt.Fprintf(w, "  %-28s %8.4f\n", k, snap.Gauges[k])
		}
	}
	header := "histograms:"
	for _, k := range sortedKeys(snap.Histograms) {
		if strings.HasPrefix(k, HistSpanSecondsPrefix) {
			continue
		}
		if header != "" {
			fmt.Fprintln(w, header)
			header = ""
		}
		h := snap.Histograms[k]
		fmt.Fprintf(w, "  %-28s n=%d mean=%.6fs min=%.6fs max=%.6fs\n",
			k, h.Count, h.Mean, h.Min, h.Max)
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
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
