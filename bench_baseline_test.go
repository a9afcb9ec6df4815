package autofeat

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"autofeat/internal/core"
	"autofeat/internal/datagen"
	"autofeat/internal/discovery"
	"autofeat/internal/frame"
	"autofeat/internal/lake"
	"autofeat/internal/obsrv"
	"autofeat/internal/serve"
	"autofeat/internal/telemetry"
)

// benchDoc is the one schema every committed BENCH_*.json shares.
type benchDoc struct {
	Benchmark  string     `json:"benchmark"`
	Dataset    string     `json:"dataset"`
	Rows       int        `json:"rows"`
	Tables     int        `json:"joinable_tables"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	NumCPU     int        `json:"num_cpu"`
	Results    []benchRow `json:"results"`
}

// benchRow is one measured row. Workers is the pool, worker or table
// count the row ran at; (mode, workers) identifies a row. Only cluster
// rows count their timed jobs per worker.
type benchRow struct {
	Mode          string         `json:"mode"`
	Workers       int            `json:"workers"`
	Iterations    int            `json:"iterations"`
	NsPerOp       int64          `json:"ns_per_op"`
	SpeedupVs1    float64        `json:"speedup_vs_1"`
	JobsPerWorker map[string]int `json:"jobs_per_worker,omitempty"`
}

// benchFloor bounds one row: its speedup_vs_1 must reach minSpeedup, or
// its ns_per_op must stay under maxNs. A multiCore floor is checked
// only on hosts with two or more CPUs.
type benchFloor struct {
	mode       string
	workers    int
	minSpeedup float64
	maxNs      int64
	multiCore  bool
	claim      string
}

// benchCases lists every baseline: subtest <name> writes
// BENCH_<name>.json, then checks the case's floors.
var benchCases = []struct {
	name   string
	run    func(t *testing.T) benchDoc
	floors []benchFloor
}{
	{"parallel", benchParallel, nil},
	{"serve", benchServe, []benchFloor{{mode: "warm", workers: 1, minSpeedup: 2, claim: "warm >= 2x cold"}}},
	{"traced", benchTraced, []benchFloor{{mode: "traced", workers: 1, minSpeedup: 1 / 1.5, claim: "traced <= 1.5x nop"}}},
	{"index", benchIndex, []benchFloor{{mode: "indexed", workers: 256, minSpeedup: 5, claim: "indexed >= 5x quadratic at 256 tables"}}},
	{"cluster", benchCluster, []benchFloor{{mode: "cluster", workers: 2, minSpeedup: 1.5, multiCore: true, claim: "2 workers >= 1.5x 1 worker"}}},
	{"federation", benchFederation, []benchFloor{{mode: "scrape_load", workers: 2, maxNs: 1e9, claim: "loaded scrape under 1s"}}},
	{"columnar", benchColumnar, []benchFloor{{mode: "columnar", workers: 256, minSpeedup: 3, claim: "columnar >= 3x csv at 256 tables"}}},
}

// TestWriteBench regenerates the committed BENCH_*.json baselines. It
// is gated behind AUTOFEAT_BENCH_DIR so plain `go test` stays fast:
//
//	AUTOFEAT_BENCH_DIR=. go test -run TestWriteBench -v .
//
// (or `make bench`); `-run TestWriteBench/cluster` regenerates one
// file. Every row is the fastest of a fixed number of runs of its op
// (minNsPerOp), with speedup_vs_1 against its case's reference row. The
// floors are checked after the file is written, so a run that misses
// one still leaves its numbers to inspect; so is the rule that a row
// counting jobs per worker shows every worker busy.
func TestWriteBench(t *testing.T) {
	dir := os.Getenv("AUTOFEAT_BENCH_DIR")
	if dir == "" {
		t.Skip("set AUTOFEAT_BENCH_DIR=<dir> to write the BENCH_*.json baselines")
	}
	for _, bc := range benchCases {
		t.Run(bc.name, func(t *testing.T) {
			doc := bc.run(t)
			doc.GOMAXPROCS, doc.NumCPU = runtime.GOMAXPROCS(0), runtime.NumCPU()
			b, err := json.MarshalIndent(doc, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "BENCH_"+bc.name+".json"), append(b, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
			for _, r := range doc.Results {
				t.Logf("%s/w%d: min of %d, %d ns/op, %.2fx", r.Mode, r.Workers, r.Iterations, r.NsPerOp, r.SpeedupVs1)
				for w, n := range r.JobsPerWorker {
					if n == 0 {
						t.Errorf("%s/w%d: %s ran no timed job, so the row measures fewer workers than it claims", r.Mode, r.Workers, w)
					}
				}
			}
			for _, f := range bc.floors {
				f.check(t, doc)
			}
		})
	}
}

func (f benchFloor) check(t *testing.T, doc benchDoc) {
	t.Helper()
	if f.multiCore && doc.NumCPU < 2 {
		t.Logf("floor %q not checked on %d CPU", f.claim, doc.NumCPU)
		return
	}
	for _, r := range doc.Results {
		if r.Mode == f.mode && r.Workers == f.workers {
			if r.SpeedupVs1 < f.minSpeedup || (f.maxNs > 0 && r.NsPerOp >= f.maxNs) {
				t.Errorf("%s/w%d misses its floor %q: %.2fx, %d ns/op", r.Mode, r.Workers, f.claim, r.SpeedupVs1, r.NsPerOp)
			}
			return
		}
	}
	t.Errorf("no %s/w%d row for floor %q", f.mode, f.workers, f.claim)
}

// minNsPerOp times n runs of op and returns the fastest in nanoseconds:
// the reproducible cost of the work, not of load spikes.
func minNsPerOp(t *testing.T, n int, op func() error) int64 {
	t.Helper()
	best := time.Duration(1<<63 - 1)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := op(); err != nil {
			t.Fatal(err)
		}
		best = min(best, time.Since(start))
	}
	return best.Nanoseconds()
}

// timeRow measures op into a reference row (speedup_vs_1 = 1).
func timeRow(t *testing.T, mode string, workers, n int, op func() error) benchRow {
	t.Helper()
	return benchRow{Mode: mode, Workers: workers, Iterations: n, NsPerOp: minNsPerOp(t, n, op), SpeedupVs1: 1}
}

// vs sets the row's speedup_vs_1 against the reference row ref.
func (r benchRow) vs(ref benchRow) benchRow {
	r.SpeedupVs1 = float64(ref.NsPerOp) / float64(r.NsPerOp)
	return r
}

func specDoc(benchmark string, spec datagen.Spec, rows ...benchRow) benchDoc {
	return benchDoc{Benchmark: benchmark, Dataset: spec.Name, Rows: spec.Rows, Tables: spec.JoinableTables, Results: rows}
}

// generateLake generates spec's dataset and writes it as a CSV lake.
func generateLake(t *testing.T, spec datagen.Spec) (*datagen.Dataset, string) {
	t.Helper()
	ds, err := datagen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return ds, writeLakeCSVs(t, ds)
}

// benchParallel is worker-pool scaling over the wide lake: one discovery
// ("discovery"), and lightgbm trained on the base table and the top-k
// paths of one ranking ("evaluate"). The speedups are bounded by the
// cores available, so they have no floor.
func benchParallel(t *testing.T) benchDoc {
	spec := datagen.ParallelSpec()
	op := discoveryOps(t, spec)
	base := timeRow(t, "discovery", 1, 10, op(context.Background(), workersConfig(1)))
	rows := []benchRow{base}
	for _, w := range []int{4, 8} {
		rows = append(rows, timeRow(t, "discovery", w, 10, op(context.Background(), workersConfig(w))).vs(base))
	}

	ds, err := datagen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	g, err := discovery.BuildBenchmarkDRG(ds.Tables, ds.KFKs)
	if err != nil {
		t.Fatal(err)
	}
	discoveryAt := func(workers int) *core.Discovery {
		d, err := core.New(g, ds.Base.Name(), ds.Label, workersConfig(workers)())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	ranking, err := discoveryAt(1).Run()
	if err != nil {
		t.Fatal(err)
	}
	lightgbm := mustModel(t, "lightgbm")
	var seq benchRow
	for _, w := range []int{1, 2, 4} {
		d := discoveryAt(w)
		row := timeRow(t, "evaluate", w, 5, func() error {
			_, err := d.EvaluateRanking(ranking, lightgbm)
			return err
		})
		if w == 1 {
			seq = row
		}
		rows = append(rows, row.vs(seq))
	}
	return specDoc("BenchmarkMicroDiscoveryWorkers", spec, rows...)
}

// benchServe is the same beam-bounded request cold (open the lake from
// CSV, build the DRG with the matcher, discover: the one-shot CLI cost)
// and warm (one resident Lake whose offline phase is paid and whose
// join-key indexes are cached: what serving from a session buys).
func benchServe(t *testing.T) benchDoc {
	spec := datagen.ParallelSpec()
	ds, dir := generateLake(t, spec)
	cfg := DefaultConfig()
	cfg.BeamWidth, cfg.MaxDepth = 2, 2
	req := Request{Base: ds.Base.Name(), Label: ds.Label, Config: &cfg}
	ctx := context.Background()
	cold := timeRow(t, "cold", 1, 5, func() error {
		l, err := OpenLake(dir)
		if err != nil {
			return err
		}
		_, err = l.Discover(ctx, req)
		return err
	})
	resident, err := OpenLake(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := timeRow(t, "warm", 1, 15, func() error {
		_, err := resident.Discover(ctx, req)
		return err
	})
	return specDoc("BenchmarkServeColdWarm", spec, cold, warm.vs(cold))
}

// benchTraced is one discovery with no collector ("nop": call sites
// still cross the nil-safe accessors) and with the full tracing a
// served job pays ("traced"): collector, trace store and flight
// recorder on every span, under a remote trace context.
func benchTraced(t *testing.T) benchDoc {
	spec := datagen.SmallSpecs()[1]
	op := discoveryOps(t, spec)
	nop := timeRow(t, "nop", 1, 15, op(context.Background(), DefaultConfig))
	traced := timeRow(t, "traced", 1, 15, op(tracedContext(), tracedConfig))
	return specDoc("BenchmarkMicroDiscoveryTraced", spec, nop, traced.vs(nop))
}

// benchIndex is DRG construction scoring every table pair with the
// exact matcher ("quadratic") against the build every lake runs
// ("indexed": lake.New(tabs).DRG(), which sketches the tables, fills the
// lake's LSH index and verifies only its bucket collisions), at
// 16/64/256 tables (the workers field), after asserting both build the
// same edges. The register_incr row absorbs one table into a warm
// 256-table lake with Lake.RegisterTable, against the indexed build of
// 256 tables from scratch.
func benchIndex(t *testing.T) benchDoc {
	m := discovery.NewMatcher()
	var rows []benchRow
	var cold benchRow
	for _, size := range []struct{ n, iters int }{{16, 5}, {64, 5}, {256, 3}} {
		n, iters := size.n, size.iters
		tabs := indexBenchTables(n)
		quadratic := func() (*Graph, error) { return discovery.DiscoverDRGQuadratic(tabs, lake.DefaultThreshold, m) }
		indexed := func() (*Graph, error) { return lake.New(tabs).DRG() }
		quadG, errQ := quadratic()
		idxG, errI := indexed()
		if err := errors.Join(errQ, errI); err != nil {
			t.Fatal(err)
		}
		if quadG.NumEdges() == 0 || quadG.NumEdges() != idxG.NumEdges() {
			t.Fatalf("n=%d: edge mismatch: quadratic %d, indexed %d", n, quadG.NumEdges(), idxG.NumEdges())
		}
		quad := timeRow(t, "quadratic", n, iters, func() error { _, err := quadratic(); return err })
		cold = timeRow(t, "indexed", n, iters, func() error { _, err := indexed(); return err }).vs(quad)
		rows = append(rows, quad, cold)
	}

	const n = 256
	tabs := indexBenchTables(n + 1)
	resident := lake.New(tabs[:n])
	if _, err := resident.DRG(); err != nil {
		t.Fatal(err)
	}
	i := 0
	incr := timeRow(t, "register_incr", n, 8, func() error {
		i++
		if err := resident.RegisterTable(tabs[n].WithName(fmt.Sprintf("fresh%03d", i))); err != nil {
			return err
		}
		_, err := resident.DRG()
		return err
	})
	rows = append(rows, incr.vs(cold))
	return benchDoc{Benchmark: "BenchmarkIndexedDRG", Dataset: "grouped-key synthetic lake (8 tables per key group)",
		Rows: 60, Tables: n, Results: rows}
}

// indexBenchTables builds n tables in key groups of eight. Tables of
// one group share a key column name and overlapping key ranges, so they
// form DRG edges; tables of different groups share neither, so the
// index never pairs them while the quadratic build scores all
// n*(n-1)/2 pairs.
func indexBenchTables(n int) []*frame.Frame {
	groups := max(n/8, 1)
	const rows = 60
	tabs := make([]*frame.Frame, n)
	for i := range tabs {
		g := i % groups
		keys := make([]int64, rows)
		feats := make([]float64, rows)
		for r := range keys {
			// A sliding 60-value window in the group's 120-value key
			// space: tables of one group overlap by 20-60 values.
			keys[r] = int64(g*100_000 + ((i/groups)*20+r)%120)
			feats[r] = float64(i*rows + r)
		}
		f := frame.New(fmt.Sprintf("t%03d", i))
		if err := errors.Join(f.AddColumn(frame.NewIntColumn(fmt.Sprintf("key_g%d", g), keys, nil)),
			f.AddColumn(frame.NewFloatColumn("feat", feats, nil))); err != nil {
			panic(err)
		}
		tabs[i] = f
	}
	return tabs
}

// benchColumnar is a cold OpenLake of 64 and 256 tables (the workers
// field) over CSV files and over the packed .afc files in the same
// directory: parsing and re-inferring every cell on each open is the
// cost the binary format deletes. TestDiscoverDeterministicAcrossBackends
// pins that both backends rank identically.
func benchColumnar(t *testing.T) benchDoc {
	const rows = 1000
	var out []benchRow
	for _, n := range []int{64, 256} {
		dir := t.TempDir()
		writeBenchLakeCSV(t, dir, n, rows)
		if packed, err := PackLake(dir); err != nil || packed != n {
			t.Fatalf("PackLake packed %d tables (err %v), want %d", packed, err, n)
		}
		open := func(f Format) func() error {
			return func() error {
				l, err := OpenLake(dir, WithFormat(f))
				if err == nil && len(l.Tables()) != n {
					err = fmt.Errorf("opened %d tables, want %d", len(l.Tables()), n)
				}
				return err
			}
		}
		csv := timeRow(t, "csv", n, 5, open(FormatCSV))
		out = append(out, csv, timeRow(t, "columnar", n, 5, open(FormatColumnar)).vs(csv))
	}
	return benchDoc{Benchmark: "BenchmarkColumnarColdOpen", Dataset: "synthetic-lake", Rows: rows, Tables: 256, Results: out}
}

// writeBenchLakeCSV writes nTables CSV tables of rows rows, mixing an
// integer key, floats (with null tokens), a low-cardinality string and
// a bool, so the CSV open pays realistic parse-and-infer cost per cell
// and the columnar open a realistic dictionary decode.
func writeBenchLakeCSV(t *testing.T, dir string, nTables, rows int) {
	t.Helper()
	words := []string{"oslo", "lima", "quito", "dakar", "hanoi", "cairo", "perth", "tunis"}
	for ti := 0; ti < nTables; ti++ {
		rng := rand.New(rand.NewSource(int64(7000 + ti)))
		var sb strings.Builder
		sb.WriteString("k,f1,f2,s1,b1\n")
		for r := 0; r < rows; r++ {
			f2 := fmt.Sprintf("%.6f", rng.NormFloat64())
			if r%97 == 0 {
				f2 = "NA"
			}
			fmt.Fprintf(&sb, "%d,%.6f,%s,%s,%t\n",
				rng.Intn(rows*4), rng.Float64()*100, f2,
				words[rng.Intn(len(words))], rng.Intn(2) == 0)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("tbl%03d.csv", ti)), []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// benchCluster is the throughput of a 16-job batch (one op) routed
// through a coordinator to 1 worker and to 2. Each cluster keeps two
// lakes per worker, chosen by startBenchCluster from lake-001 upwards,
// and the batch goes round-robin over them. jobs_per_worker counts
// where the timed jobs ran: a 2-worker row whose jobs all ran on one
// worker would measure one worker. The speedup is CPU-bound, so its
// floor applies on multi-core hosts only.
func benchCluster(t *testing.T) benchDoc {
	const jobs, batches = 16, 5
	spec := datagen.SmallSpecs()[0]
	var rows []benchRow
	for _, n := range []int{1, 2} {
		c := startBenchCluster(t, spec, n, 2)
		batch := make([]string, jobs)
		for i := range batch {
			batch[i] = c.lakes[i%len(c.lakes)]
		}
		var ids []string
		r := timeRow(t, "cluster", n, batches, func() error {
			got, err := c.run(batch...)
			ids = append(ids, got...)
			return err
		})
		r.JobsPerWorker = map[string]int{}
		for _, w := range c.workers {
			r.JobsPerWorker[w] = 0
		}
		for _, id := range ids {
			j, _ := c.coord.Store().Job(id)
			r.JobsPerWorker[j.Worker]++
		}
		if n > 1 {
			r = r.vs(rows[0])
		}
		rows = append(rows, r)
	}
	doc := specDoc("BenchmarkClusterJobs", spec, rows...)
	doc.Dataset = fmt.Sprintf("%s: 2 lakes per worker, %d jobs per op", spec.Name, jobs)
	return doc
}

// benchFederation is one coordinator GET /v1/cluster/metrics over a
// two-worker cluster (one lake each), idle and while a background
// workload keeps both workers busy. The scrape renders snapshots the
// sweep already pulled, so the fastest loaded scrape shows whether a
// scrape waits on the job path.
func benchFederation(t *testing.T) benchDoc {
	const scrapes = 300
	spec := datagen.SmallSpecs()[0]
	c := startBenchCluster(t, spec, 2, 1)
	var body []byte
	scrape := func() error {
		resp, err := http.Get(c.url + "/v1/cluster/metrics")
		if err != nil {
			return err
		}
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("scrape: status %d", resp.StatusCode)
		}
		return err
	}
	// One scrape must cover every node before timing starts.
	if err := scrape(); err != nil {
		t.Fatal(err)
	}
	for _, w := range c.workers {
		if !strings.Contains(string(body), fmt.Sprintf("node=%q", w)) {
			t.Fatalf("federated scrape missing node %s before timing", w)
		}
	}
	idle := timeRow(t, "scrape_idle", 2, scrapes, scrape)

	var stop atomic.Bool
	loadErr := make(chan error, 1)
	go func() {
		var err error
		for err == nil && !stop.Load() {
			_, err = c.run(c.lakes...)
		}
		loadErr <- err
	}()
	defer func() { // a failed scrape still stops and waits for the load
		if !stop.Swap(true) {
			<-loadErr
		}
	}()
	load := timeRow(t, "scrape_load", 2, scrapes, scrape)
	stop.Store(true)
	if err := <-loadErr; err != nil {
		t.Fatal(err)
	}
	doc := specDoc("BenchmarkFederationScrape", spec, idle, load.vs(idle))
	doc.Dataset = spec.Name + ": 1 lake per worker"
	return doc
}

// benchClusterFixture is a coordinator plus workers on httptest
// listeners, serving copies of one generated lake.
type benchClusterFixture struct {
	url     string
	coord   *serve.Coordinator
	ds      *datagen.Dataset
	workers []string
	lakes   []string
}

// startBenchCluster starts a coordinator and n workers, then registers
// lake-001, lake-002, ... in order over spec's lake. It keeps an id
// while its owner, read from the registration reply, holds fewer than
// perWorker kept lakes, and stops once every worker holds perWorker.
// Placement decides the ids, so they are logged. One warmup job per
// kept lake pays each session's DRG build and lets the sweep pull every
// worker's snapshot.
func startBenchCluster(t *testing.T, spec datagen.Spec, n, perWorker int) *benchClusterFixture {
	t.Helper()
	ds, dir := generateLake(t, spec)
	store, _ := serve.NewJobStore("") // in memory: cannot fail
	c := &benchClusterFixture{ds: ds}
	c.coord = serve.NewCoordinator(serve.ClusterConfig{HeartbeatTimeout: time.Minute, Collector: telemetry.New()}, store)
	csrv := obsrv.NewServer(obsrv.Config{Collector: telemetry.New()})
	c.coord.Mount(csrv)
	cts := httptest.NewServer(csrv.Handler())
	t.Cleanup(cts.Close)
	c.url = cts.URL
	for i := 0; i < n; i++ {
		col := telemetry.New()
		wsrv := obsrv.NewServer(obsrv.Config{Collector: col})
		svc := serve.New(serve.Config{Workers: 1, QueueDepth: 64, Collector: col})
		svc.Mount(wsrv)
		ts := httptest.NewServer(wsrv.Handler())
		t.Cleanup(ts.Close)
		id := fmt.Sprintf("bench-worker-%d", i)
		agent := serve.NewAgent(serve.AgentConfig{ID: id, Addr: ts.URL, Coordinator: c.url, Collector: col}, svc)
		agent.Mount(wsrv)
		if err := agent.Heartbeat(context.Background()); err != nil {
			t.Fatal(err)
		}
		c.workers = append(c.workers, id)
	}
	owned := map[string]int{}
	for i := 1; len(c.lakes) < n*perWorker; i++ {
		if i > 100 {
			t.Fatalf("lake-001..lake-100 give no %d workers %d lakes each: %v", n, perWorker, owned)
		}
		id := fmt.Sprintf("lake-%03d", i)
		var rep struct {
			Worker string `json:"worker"`
		}
		if err := c.post("/v1/lakes", map[string]any{"id": id, "dir": dir}, http.StatusCreated, &rep); err != nil {
			t.Fatal(err)
		}
		if owned[rep.Worker] < perWorker {
			owned[rep.Worker]++
			c.lakes = append(c.lakes, id)
		}
	}
	t.Logf("%d workers: lakes %v", n, c.lakes)
	if _, err := c.run(c.lakes...); err != nil {
		t.Fatal(err)
	}
	return c
}

// post sends v as JSON and decodes the reply into out, requiring status want.
func (c *benchClusterFixture) post(path string, v any, want int, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	resp, err := http.Post(c.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("POST %s: status %d, want %d", path, resp.StatusCode, want)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// run submits one discovery per listed lake, waits until every stored
// job is done and returns the submitted jobs' ids.
func (c *benchClusterFixture) run(lakes ...string) ([]string, error) {
	ids := make([]string, len(lakes))
	for i, l := range lakes {
		var rep struct {
			ID string `json:"id"`
		}
		req := map[string]any{"lake": l, "base": c.ds.Base.Name(), "label": c.ds.Label}
		if err := c.post("/v1/discoveries", req, http.StatusAccepted, &rep); err != nil {
			return ids, err
		}
		ids[i] = rep.ID
	}
	return ids, c.drain()
}

// drain sweeps until every stored job is done; a failed or cancelled
// job is an error.
func (c *benchClusterFixture) drain() error {
	for deadline := time.Now().Add(2 * time.Minute); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		c.coord.Sweep()
		done := true
		for _, j := range c.coord.Store().Jobs() {
			switch j.State {
			case serve.StateDone:
			case serve.StateFailed, serve.StateCancelled:
				return fmt.Errorf("cluster job %s finished %q: %s", j.ID, j.State, j.Error)
			default:
				done = false
			}
		}
		if done {
			return nil
		}
	}
	return errors.New("cluster jobs did not drain in time")
}
