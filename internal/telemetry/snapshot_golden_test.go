package telemetry

// Golden tests pinning the snapshot's JSON encoding: cluster workers
// serve it on /cluster/v1/telemetry and the coordinator decodes it, so
// format drift is a wire break and must show up in review as a golden
// update, not slip through silently.

import (
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

// TestJSONSinkGolden pins the indented JSON encoding of a snapshot.
func TestJSONSinkGolden(t *testing.T) {
	b, err := json.MarshalIndent(goldenSnapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if got := string(b) + "\n"; got != goldenJSON {
		t.Errorf("snapshot JSON changed.\n--- got ---\n%s\n--- want ---\n%s", got, goldenJSON)
	}
	// The encoding must round-trip back into an equivalent snapshot.
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("snapshot JSON is not valid JSON: %v", err)
	}
	if !reflect.DeepEqual(&back, goldenSnapshot()) {
		t.Errorf("round-trip mismatch: %+v", back)
	}
}

// driveCollector exercises a clock-injected collector the same way each
// call, so two invocations must encode byte-identical snapshots.
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

// TestSinkOutputStableAcrossRuns checks that two identically driven
// collectors encode byte-identical snapshots.
func TestSinkOutputStableAcrossRuns(t *testing.T) {
	encode := func() string {
		b, err := json.MarshalIndent(driveCollector(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if a, b := encode(), encode(); a != b {
		t.Errorf("snapshot JSON not deterministic under injected clock:\n%s\nvs\n%s", a, b)
	}
}
