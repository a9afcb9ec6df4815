package autofeat

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"autofeat/internal/datagen"
	"autofeat/internal/discovery"
	"autofeat/internal/telemetry"
)

// TestWriteTracedBench regenerates BENCH_traced.json, the committed
// tracing-overhead baseline cmd/benchdiff gates. It is gated behind
// AUTOFEAT_TRACED_BENCH_OUT so plain `go test` stays fast:
//
//	AUTOFEAT_TRACED_BENCH_OUT=BENCH_traced.json go test -run TestWriteTracedBench .
//
// (or `make bench`, which does the same). "nop" is discovery with no
// collector attached — every call site still crosses the nil-safe
// Trace()/Meter() accessors. "traced" is the full request-tracing path a
// served job pays: a live collector, a trace store and flight recorder
// observing every finished span, and a remote trace context so span
// identity is inherited rather than freshly rooted. The recorded ratio
// is the end-to-end cost of request-scoped tracing.
func TestWriteTracedBench(t *testing.T) {
	out := os.Getenv("AUTOFEAT_TRACED_BENCH_OUT")
	if out == "" {
		t.Skip("set AUTOFEAT_TRACED_BENCH_OUT=<path> to write the tracing-overhead baseline")
	}
	spec := datagen.SmallSpecs()[1]
	ds, err := datagen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	g, err := discovery.BuildBenchmarkDRG(ds.Tables, ds.KFKs)
	if err != nil {
		t.Fatal(err)
	}
	remote, _ := telemetry.ParseTraceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	const iters = 15

	nopNs := minNsPerOp(t, iters, func() error {
		disc, err := newDiscovery(g, ds.Base.Name(), ds.Label, DefaultConfig())
		if err != nil {
			return err
		}
		_, err = disc.Run()
		return err
	})

	tracedNs := minNsPerOp(t, iters, func() error {
		cfg := DefaultConfig()
		cfg.Telemetry = NewTelemetry()
		cfg.Telemetry.ObserveSpans(NewTraceStore(0, 0), NewFlightRecorder(0))
		disc, err := newDiscovery(g, ds.Base.Name(), ds.Label, cfg)
		if err != nil {
			return err
		}
		_, err = disc.RunContext(telemetry.ContextWithRemote(context.Background(), remote))
		return err
	})

	overhead := tracedNs / nopNs
	t.Logf("nop:    min of %d, %.0f ns/op", iters, nopNs)
	t.Logf("traced: min of %d, %.0f ns/op (%.2fx)", iters, tracedNs, overhead)
	// The overhead guard proper: request tracing must stay a modest tax
	// on discovery, not a multiple of it.
	if overhead > 1.5 {
		t.Errorf("traced discovery is %.2fx the untraced cost, want <= 1.5x", overhead)
	}

	type entry struct {
		Mode       string  `json:"mode"`
		Workers    int     `json:"workers"`
		Iterations int     `json:"iterations"`
		NsPerOp    int64   `json:"ns_per_op"`
		SpeedupVs1 float64 `json:"speedup_vs_1"`
	}
	doc := struct {
		Benchmark  string  `json:"benchmark"`
		Dataset    string  `json:"dataset"`
		Rows       int     `json:"rows"`
		Tables     int     `json:"joinable_tables"`
		GOMAXPROCS int     `json:"gomaxprocs"`
		NumCPU     int     `json:"num_cpu"`
		Overhead   float64 `json:"traced_vs_nop"`
		Results    []entry `json:"results"`
	}{
		Benchmark:  "BenchmarkMicroDiscoveryTraced",
		Dataset:    spec.Name,
		Rows:       spec.Rows,
		Tables:     spec.JoinableTables,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Overhead:   overhead,
		Results: []entry{
			{Mode: "nop", Workers: 1, Iterations: iters, NsPerOp: int64(nopNs), SpeedupVs1: 1},
			{Mode: "traced", Workers: 1, Iterations: iters, NsPerOp: int64(tracedNs), SpeedupVs1: nopNs / tracedNs},
		},
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("baseline written to %s", out)
}
