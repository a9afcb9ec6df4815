package telemetry

// Golden tests pinning the ReportSink and JSONSink output formats. The
// sink output is consumed by scripts and diffed across runs, so format
// drift is a breaking change and must show up in review as a golden
// update, not slip through silently.

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// goldenSnapshot returns a small hand-built snapshot with one of every
// metric kind, so the golden strings stay short and readable.
func goldenSnapshot() *Snapshot {
	return &Snapshot{
		Counters: map[string]int64{
			CtrJoins:                       3,
			PrunedCounter(PruneSimilarity): 2,
		},
		Gauges: map[string]float64{
			GaugeWorkers: 4,
		},
		Histograms: map[string]HistogramSnapshot{
			HistQueueWaitSeconds: {
				Count:  2,
				Sum:    0.3,
				Mean:   0.15,
				Min:    0.1,
				Max:    0.2,
				Bounds: []float64{0.1, 1},
				Counts: []int64{1, 1, 0},
			},
			HistSpanSecondsPrefix + SpanRun: {
				Count:  1,
				Sum:    0.005,
				Mean:   0.005,
				Min:    0.005,
				Max:    0.005,
				Bounds: []float64{0.1, 1},
				Counts: []int64{1, 0, 0},
			},
			HistSpanSecondsPrefix + SpanJoinEval: {
				Count:  2,
				Sum:    0.003,
				Mean:   0.0015,
				Min:    0.001,
				Max:    0.002,
				Bounds: []float64{0.1, 1},
				Counts: []int64{2, 0, 0},
			},
		},
	}
}

const goldenReport = `=== telemetry report ===
phases (by total time):
  span                            count        total         mean          max
  discovery.run                       1          5ms          5ms          5ms
  discovery.evaluate_join             2          3ms        1.5ms          2ms
pruning breakdown:
  similarity                          2
counters:
  discovery.pruned.similarity         2
  relational.joins                    3
gauges:
  discovery.workers              4.0000
histograms:
  serve.queue_wait_seconds     n=2 mean=0.150000s min=0.100000s max=0.200000s
`

func TestReportSinkGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := (ReportSink{W: &buf}).Flush(goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != goldenReport {
		t.Errorf("ReportSink output changed.\n--- got ---\n%s\n--- want ---\n%s", got, goldenReport)
	}
}

const goldenJSON = `{
  "counters": {
    "discovery.pruned.similarity": 2,
    "relational.joins": 3
  },
  "gauges": {
    "discovery.workers": 4
  },
  "histograms": {
    "serve.queue_wait_seconds": {
      "count": 2,
      "sum": 0.3,
      "mean": 0.15,
      "min": 0.1,
      "max": 0.2,
      "bounds": [
        0.1,
        1
      ],
      "counts": [
        1,
        1,
        0
      ]
    },
    "span_seconds.discovery.evaluate_join": {
      "count": 2,
      "sum": 0.003,
      "mean": 0.0015,
      "min": 0.001,
      "max": 0.002,
      "bounds": [
        0.1,
        1
      ],
      "counts": [
        2,
        0,
        0
      ]
    },
    "span_seconds.discovery.run": {
      "count": 1,
      "sum": 0.005,
      "mean": 0.005,
      "min": 0.005,
      "max": 0.005,
      "bounds": [
        0.1,
        1
      ],
      "counts": [
        1,
        0,
        0
      ]
    }
  }
}
`

func TestJSONSinkGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := (JSONSink{W: &buf}).Flush(goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != goldenJSON {
		t.Errorf("JSONSink output changed.\n--- got ---\n%s\n--- want ---\n%s", got, goldenJSON)
	}
	// The sink output must round-trip back into an equivalent snapshot.
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("JSONSink output is not valid JSON: %v", err)
	}
	if !reflect.DeepEqual(&back, goldenSnapshot()) {
		t.Errorf("round-trip mismatch: %+v", back)
	}
}

// driveCollector exercises a clock-injected collector the same way each
// call, so two invocations must flush byte-identical sink output.
func driveCollector() *Snapshot {
	var step int64
	clock := func() time.Time {
		step++
		return time.Unix(0, 0).Add(time.Duration(step) * time.Millisecond)
	}
	c := NewWithClock(clock)
	ctx, run := StartSpan(context.Background(), c, SpanRun)
	_, j := StartSpan(ctx, c, SpanJoinEval)
	j.SetStr("path", "base->satA")
	j.End()
	run.End()
	c.Meter().Inc(CtrJoins)
	c.Meter().Add(CtrPathsExplored, 5)
	c.Meter().Inc(PrunedCounter(PruneQualityBelowTau))
	c.Meter().SetGauge(GaugeWorkers, 2)
	c.Meter().Observe(HistQueueWaitSeconds, 0.004)
	return c.Snapshot()
}

func TestSinkOutputStableAcrossRuns(t *testing.T) {
	flush := func(sink func(*bytes.Buffer) Sink) (string, string) {
		var a, b bytes.Buffer
		if err := sink(&a).Flush(driveCollector()); err != nil {
			t.Fatal(err)
		}
		if err := sink(&b).Flush(driveCollector()); err != nil {
			t.Fatal(err)
		}
		return a.String(), b.String()
	}
	if a, b := flush(func(w *bytes.Buffer) Sink { return ReportSink{W: w} }); a != b {
		t.Errorf("ReportSink not deterministic under injected clock:\n%s\nvs\n%s", a, b)
	}
	if a, b := flush(func(w *bytes.Buffer) Sink { return JSONSink{W: w} }); a != b {
		t.Errorf("JSONSink not deterministic under injected clock:\n%s\nvs\n%s", a, b)
	}
}
