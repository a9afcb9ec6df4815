package autofeat

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"autofeat/internal/datagen"
	"autofeat/internal/discovery"
)

// TestWriteParallelBench regenerates BENCH_parallel.json, the committed
// worker-scaling baseline. It is gated behind AUTOFEAT_BENCH_OUT so plain
// `go test` stays fast:
//
//	AUTOFEAT_BENCH_OUT=BENCH_parallel.json go test -run TestWriteParallelBench .
//
// (or `make bench`, which does the same). The file records GOMAXPROCS and
// NumCPU alongside the measurements: the speedup at 4 and 8 workers is
// bounded by the cores available, so a baseline produced on a small
// container will show ~1x and must be regenerated on multi-core hardware
// to observe the scaling.
func TestWriteParallelBench(t *testing.T) {
	out := os.Getenv("AUTOFEAT_BENCH_OUT")
	if out == "" {
		t.Skip("set AUTOFEAT_BENCH_OUT=<path> to write the worker-scaling baseline")
	}
	spec := datagen.ParallelSpec()
	d, err := datagen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	g, err := discovery.BuildBenchmarkDRG(d.Tables, d.KFKs)
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Workers    int     `json:"workers"`
		Iterations int     `json:"iterations"`
		NsPerOp    int64   `json:"ns_per_op"`
		SpeedupVs1 float64 `json:"speedup_vs_1"`
	}
	var (
		entries []entry
		baseNs  float64
	)
	for _, workers := range []int{1, 4, 8} {
		w := workers
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig()
				cfg.Workers = w
				disc, err := newDiscovery(g, d.Base.Name(), d.Label, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := disc.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
		ns := float64(res.NsPerOp())
		if w == 1 {
			baseNs = ns
		}
		entries = append(entries, entry{
			Workers:    w,
			Iterations: res.N,
			NsPerOp:    int64(ns),
			SpeedupVs1: baseNs / ns,
		})
		t.Logf("workers=%d: %d iters, %.0f ns/op, %.2fx", w, res.N, ns, baseNs/ns)
	}
	doc := struct {
		Benchmark  string  `json:"benchmark"`
		Dataset    string  `json:"dataset"`
		Rows       int     `json:"rows"`
		Tables     int     `json:"joinable_tables"`
		GOMAXPROCS int     `json:"gomaxprocs"`
		NumCPU     int     `json:"num_cpu"`
		Results    []entry `json:"results"`
	}{
		Benchmark:  "BenchmarkMicroDiscoveryWorkers",
		Dataset:    spec.Name,
		Rows:       spec.Rows,
		Tables:     spec.JoinableTables,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Results:    entries,
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
