package autofeat

// The benchmark suite regenerates every table and figure of the paper's
// evaluation. Each BenchmarkX prints the corresponding report once to
// stdout (the testing package would truncate long b.Log output) and
// measures the end-to-end harness cost. The suite runs at "quick" scale
// (datagen.QuickSpecs: rows ≤ 1200, ≤ 8 tables, ≤ 30 features);
// cmd/experiments runs the same experiments at full Table II scale.

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"testing"

	"autofeat/internal/bench"
	"autofeat/internal/core"
	"autofeat/internal/datagen"
	"autofeat/internal/discovery"
	"autofeat/internal/telemetry"
)

var (
	quickOnce   sync.Once
	quickShared *bench.Runner
)

// quickRunner returns a shared runner so figures reuse cached sweeps,
// exactly as cmd/experiments does.
func quickRunner() *bench.Runner {
	quickOnce.Do(func() {
		quickShared = bench.NewRunner(datagen.QuickSpecs(), 7)
	})
	return quickShared
}

func logReport(b *testing.B, rep *bench.Report, i int) {
	b.Helper()
	if i == 0 {
		// Printed to stdout, not b.Log: the testing package truncates
		// long benchmark logs, and these tables ARE the deliverable.
		fmt.Println(rep)
	}
}

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		logReport(b, bench.TableI(), i)
	}
}

func BenchmarkTableII(b *testing.B) {
	r := quickRunner()
	for i := 0; i < b.N; i++ {
		rep, err := r.TableII()
		if err != nil {
			b.Fatal(err)
		}
		logReport(b, rep, i)
	}
}

func BenchmarkFigure3a(b *testing.B) {
	r := quickRunner()
	for i := 0; i < b.N; i++ {
		rep, err := r.Figure3a()
		if err != nil {
			b.Fatal(err)
		}
		logReport(b, rep, i)
	}
}

func BenchmarkFigure3b(b *testing.B) {
	r := quickRunner()
	for i := 0; i < b.N; i++ {
		rep, err := r.Figure3b()
		if err != nil {
			b.Fatal(err)
		}
		logReport(b, rep, i)
	}
}

func BenchmarkFigure4(b *testing.B) {
	r := quickRunner()
	for i := 0; i < b.N; i++ {
		rep, err := r.Figure4()
		if err != nil {
			b.Fatal(err)
		}
		logReport(b, rep, i)
	}
}

func BenchmarkFigure5(b *testing.B) {
	r := quickRunner()
	for i := 0; i < b.N; i++ {
		rep, err := r.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		logReport(b, rep, i)
	}
}

func BenchmarkFigure6(b *testing.B) {
	r := quickRunner()
	for i := 0; i < b.N; i++ {
		rep, err := r.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		logReport(b, rep, i)
	}
}

func BenchmarkFigure7(b *testing.B) {
	r := quickRunner()
	for i := 0; i < b.N; i++ {
		rep, err := r.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		logReport(b, rep, i)
	}
}

func BenchmarkFigure8(b *testing.B) {
	r := quickRunner()
	for i := 0; i < b.N; i++ {
		reps, err := r.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		for _, rep := range reps {
			logReport(b, rep, i)
		}
	}
}

func BenchmarkFigure9(b *testing.B) {
	r := quickRunner()
	for i := 0; i < b.N; i++ {
		rep, err := r.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		logReport(b, rep, i)
	}
}

func BenchmarkFigure1(b *testing.B) {
	r := quickRunner()
	for i := 0; i < b.N; i++ {
		rep, err := r.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		logReport(b, rep, i)
	}
}

func BenchmarkAblationTraversal(b *testing.B) {
	r := quickRunner()
	for i := 0; i < b.N; i++ {
		rep, err := r.AblationTraversal()
		if err != nil {
			b.Fatal(err)
		}
		logReport(b, rep, i)
	}
}

func BenchmarkAblationCardinality(b *testing.B) {
	r := quickRunner()
	for i := 0; i < b.N; i++ {
		rep, err := r.AblationCardinality()
		if err != nil {
			b.Fatal(err)
		}
		logReport(b, rep, i)
	}
}

func BenchmarkAblationSimPrune(b *testing.B) {
	r := quickRunner()
	for i := 0; i < b.N; i++ {
		rep, err := r.AblationSimPrune()
		if err != nil {
			b.Fatal(err)
		}
		logReport(b, rep, i)
	}
}

func BenchmarkAblationBins(b *testing.B) {
	r := quickRunner()
	for i := 0; i < b.N; i++ {
		rep, err := r.AblationBins()
		if err != nil {
			b.Fatal(err)
		}
		logReport(b, rep, i)
	}
}

func BenchmarkAblationStreaming(b *testing.B) {
	r := quickRunner()
	for i := 0; i < b.N; i++ {
		rep, err := r.AblationStreaming()
		if err != nil {
			b.Fatal(err)
		}
		logReport(b, rep, i)
	}
}

// Micro-benchmarks for the hot substrate paths, so regressions in the
// engine itself are visible independent of the experiment harness.

func BenchmarkMicroLeftJoin(b *testing.B) {
	d, err := datagen.Generate(datagen.SmallSpecs()[1])
	if err != nil {
		b.Fatal(err)
	}
	g, err := discovery.BuildBenchmarkDRG(d.Tables, d.KFKs)
	if err != nil {
		b.Fatal(err)
	}
	disc, err := core.New(g, d.Base.Name(), d.Label, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	ranking, err := disc.Run()
	if err != nil {
		b.Fatal(err)
	}
	if len(ranking.Paths) == 0 {
		b.Fatal("no paths")
	}
	base := d.Base.Prefixed(d.Base.Name())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := disc.MaterializePath(ranking.Paths[0], base); err != nil {
			b.Fatal(err)
		}
	}
}

// discoveryOps generates spec's lake and builds its benchmark DRG once,
// then makes ops that each run one discovery over that graph under ctx
// with a fresh cfg(). The micro benchmarks and TestWriteBench time the
// same ops.
func discoveryOps(tb testing.TB, spec datagen.Spec) func(ctx context.Context, cfg func() Config) func() error {
	tb.Helper()
	d, err := datagen.Generate(spec)
	if err != nil {
		tb.Fatal(err)
	}
	g, err := discovery.BuildBenchmarkDRG(d.Tables, d.KFKs)
	if err != nil {
		tb.Fatal(err)
	}
	return func(ctx context.Context, cfg func() Config) func() error {
		return func() error {
			disc, err := core.New(g, d.Base.Name(), d.Label, cfg())
			if err != nil {
				return err
			}
			_, err = disc.RunContext(ctx)
			return err
		}
	}
}

// benchOp runs op b.N times after the setup that built it.
func benchOp(b *testing.B, op func() error) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}

func telemetryConfig() Config {
	cfg := DefaultConfig()
	cfg.Telemetry = NewTelemetry()
	return cfg
}

// tracedConfig adds what a served job's tracing pays on top of the
// collector: a trace store and flight recorder observing every span.
func tracedConfig() Config {
	cfg := telemetryConfig()
	cfg.Telemetry.ObserveSpans(NewTraceStore(0, 0), NewFlightRecorder(0))
	return cfg
}

// tracedContext carries a remote trace context, so span identity is
// inherited rather than freshly rooted, as in a served job.
func tracedContext() context.Context {
	remote, _ := telemetry.ParseTraceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	return telemetry.ContextWithRemote(context.Background(), remote)
}

func workersConfig(n int) func() Config {
	return func() Config {
		cfg := DefaultConfig()
		cfg.Workers = n
		return cfg
	}
}

func BenchmarkMicroDiscovery(b *testing.B) {
	benchOp(b, discoveryOps(b, datagen.SmallSpecs()[1])(context.Background(), DefaultConfig))
}

// BenchmarkMicroDiscoveryTelemetry is the overhead guard for the
// observability layer: compare against BenchmarkMicroDiscovery (same
// workload with Config.Telemetry nil) to measure the cost of full span
// and metric collection. The disabled path (nil collector) is exercised
// by BenchmarkMicroDiscovery itself, since every call site goes through
// the nil-safe Trace()/Meter() accessors either way.
func BenchmarkMicroDiscoveryTelemetry(b *testing.B) {
	benchOp(b, discoveryOps(b, datagen.SmallSpecs()[1])(context.Background(), telemetryConfig))
}

// BenchmarkMicroDiscoveryObserved is the full-observability variant of
// the overhead guard: telemetry, a live RunProgress tracker and a
// debug-level structured logger (to io.Discard) are all attached, the
// worst case a production run can configure. Compare against
// BenchmarkMicroDiscovery (everything nil) — the acceptance bound for the
// disabled path is <2%, and this benchmark bounds the enabled path.
func BenchmarkMicroDiscoveryObserved(b *testing.B) {
	benchOp(b, discoveryOps(b, datagen.SmallSpecs()[1])(context.Background(), func() Config {
		cfg := telemetryConfig()
		cfg.Progress = NewRunProgress("bench")
		cfg.Logger = NewLogger(io.Discard, slog.LevelDebug, "json")
		return cfg
	}))
}

// BenchmarkMicroDiscoveryTraced is the overhead guard for the request
// tracer: on top of BenchmarkMicroDiscoveryTelemetry's collector it
// attaches a trace store and flight recorder as span observers and runs
// under a remote trace context, so every span is identified, copied and
// fanned out the way a served job's spans are. Compare against
// BenchmarkMicroDiscoveryTelemetry for the tracing increment and against
// BenchmarkMicroDiscovery for the total observability cost;
// TestWriteBench/traced times the same op into BENCH_traced.json.
func BenchmarkMicroDiscoveryTraced(b *testing.B) {
	benchOp(b, discoveryOps(b, datagen.SmallSpecs()[1])(tracedContext(), tracedConfig))
}

// benchDiscoveryWorkers measures end-to-end discovery on the wide
// worker-scaling dataset at a fixed worker-pool size. Compare Workers1
// against Workers4/Workers8 for the parallel join-evaluation speedup
// (bounded by GOMAXPROCS; the ranking is identical at every count).
func benchDiscoveryWorkers(b *testing.B, workers int) {
	b.Helper()
	benchOp(b, discoveryOps(b, datagen.ParallelSpec())(context.Background(), workersConfig(workers)))
}

func BenchmarkMicroDiscoveryWorkers1(b *testing.B) { benchDiscoveryWorkers(b, 1) }
func BenchmarkMicroDiscoveryWorkers4(b *testing.B) { benchDiscoveryWorkers(b, 4) }
func BenchmarkMicroDiscoveryWorkers8(b *testing.B) { benchDiscoveryWorkers(b, 8) }

func BenchmarkMicroMatcher(b *testing.B) {
	d, err := datagen.Generate(datagen.SmallSpecs()[1])
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewLake(d.Tables, WithThreshold(0.55)).DRG(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationJoinType(b *testing.B) {
	r := quickRunner()
	for i := 0; i < b.N; i++ {
		rep, err := r.AblationJoinType()
		if err != nil {
			b.Fatal(err)
		}
		logReport(b, rep, i)
	}
}
