package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"
)

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain())
	}
	os.Exit(m.Run())
}

// toyWorkloads shrinks every workload to a few requests on a small lake,
// keeping its kind, request mix and writes.
func toyWorkloads() []workload {
	var out []workload
	for _, w := range workloads {
		w.Shape.Rows, w.Shape.Tables, w.Shape.Features = 200, 4, 12
		w.MaxRequests = 4
		if w.Kind != kindServed {
			w.Lakes = 2
		} else {
			w.Rate, w.ModelEvery, w.JobSeeds = 8, 2, 2
			if w.WriteRate > 0 {
				w.WriteRate = 4
			}
		}
		out = append(out, w)
	}
	return out
}

type benchDoc struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundSpec `json:"end_to_end"`
	PerLayer []boundSpec `json:"per_layer"`
}

// TestSmoke runs every workload end to end at toy size, against a real
// `autofeat serve` for the served ones, untraced and traced, and checks
// that every metric BENCHMARK.json names is reported with its unit and
// that every response matched its reference.
func TestSmoke(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("BENCHMARK.json workload %d = %q (%q), the benchmark runs %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	dir := t.TempDir()
	for _, traced := range []bool{false, true} {
		want := doc.EndToEnd
		if traced {
			want = doc.PerLayer
		}
		o := options{Seed: 3, Seconds: 1, Traced: traced}
		results, err := runWorkloads(context.Background(), toyWorkloads(), o, dir, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(workloads) {
			t.Fatalf("%d results, want %d", len(results), len(workloads))
		}
		for _, r := range results {
			if r.Failed != 0 || !r.Correct || r.Attempted == 0 {
				t.Errorf("%s traced=%t: %d of %d requests failed", r.Workload, traced, r.Failed, r.Attempted)
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%t: metric %s = %+v, want unit %s", r.Workload, traced, m.Name, got, m.Unit)
				}
				if !traced && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", r.Workload, m.Name, got.Value)
				}
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, BENCHMARK.json names %d", r.Workload, traced, len(r.Metrics), len(want))
			}
			if traced {
				layer := "fselect.redundancy.count"
				if r.Workload == "serve-read" || r.Workload == "serve-write" {
					layer = "serve.job.count"
				}
				if r.Metrics[layer].Value == 0 {
					t.Errorf("%s: traced run recorded no %s", r.Workload, layer)
				}
			}
		}
	}
}

// TestScheduleDealsSeeds checks that every seed offers the same mix: one
// model job in every ModelEvery, and within each model the job seeds
// differ in count by at most one.
func TestScheduleDealsSeeds(t *testing.T) {
	w, _ := workloadByName("serve-read")
	g := &generator{w: w}
	for seed := int64(1); seed <= 5; seed++ {
		evs := g.schedule(rand.New(rand.NewSource(seed)), 25)
		counts := map[jobClass]int{}
		models := 0
		for _, e := range evs {
			counts[e.class]++
			if e.class.Model != "" {
				models++
			}
		}
		if n := len(evs) / w.ModelEvery; models < n || models > n+1 {
			t.Errorf("seed %d: %d model jobs in %d, want %d or %d", seed, models, len(evs), n, n+1)
		}
		for _, m := range []string{"", "lightgbm"} {
			lo, hi := len(evs), 0
			for s := 1; s <= w.JobSeeds; s++ {
				n := counts[jobClass{Model: m, Seed: int64(s)}]
				lo, hi = min(lo, n), max(hi, n)
			}
			if hi-lo > 1 {
				t.Errorf("seed %d, model %q: job seeds dealt %d to %d times, want within one", seed, m, lo, hi)
			}
		}
	}
}

func TestJudge(t *testing.T) {
	ten := func(f func(i int) float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	lower := boundSpec{Name: "latency_p50_s", Better: "lower", Bound: 0.10}
	higher := boundSpec{Name: "throughput_rps", Better: "higher", Bound: 0.10}
	base := ten(func(i int) float64 { return 1 + 0.002*float64(i%5) })
	for _, tc := range []struct {
		name     string
		b        boundSpec
		old, new []float64
		want     string
	}{
		{"identical", lower, base, base, verdictSame},
		{"small noise", lower, base, ten(func(i int) float64 { return 1.003 + 0.002*float64(i%3) }), verdictSame},
		{"win", lower, base, ten(func(i int) float64 { return 0.8 + 0.002*float64(i%5) }), verdictGain},
		{"win on a higher-is-better metric", higher, base, ten(func(i int) float64 { return 1.3 + 0.002*float64(i%5) }), verdictGain},
		{"8 of 10 wins is no gain", lower, base, ten(func(i int) float64 {
			if i < 2 {
				return 1.01
			}
			return 0.99
		}), verdictSame},
		{"regress", lower, base, ten(func(i int) float64 { return 1.2 + 0.002*float64(i%5) }), verdictRegress},
		{"regress on a higher-is-better metric", higher, base, ten(func(i int) float64 { return 0.8 }), verdictRegress},
		{"spread above bound", lower, ten(func(i int) float64 { return 1 + 0.1*float64(i%5) }), ten(func(i int) float64 { return 1.25 + 0.1*float64(i%5) }), verdictUnresolved},
		{"too few pairs", lower, base[:5], base[:5], verdictUnresolved},
	} {
		if got := judge(tc.b, tc.old, tc.new); got.Outcome != tc.want {
			t.Errorf("%s: %s (%+v), want %s", tc.name, got.Outcome, got, tc.want)
		}
	}
}

// TestCompareRuns checks the verdicts compare draws from whole runs:
// failures and incorrect outputs regress a workload and cancel its gains,
// and invalid runs are left out of the timings.
func TestCompareRuns(t *testing.T) {
	lower := boundSpec{Name: "latency_p50_s", Better: "lower", Bound: 0.10}
	runs := func(latency func(i int) float64, edit func(i int, r *result)) []*result {
		var out []*result
		for i := 0; i < 10; i++ {
			r := &result{Workload: "w", Valid: true, Correct: true, Attempted: 100,
				Metrics: map[string]metric{lower.Name: {latency(i), "s"}}}
			if edit != nil {
				edit(i, r)
			}
			out = append(out, r)
		}
		return out
	}
	base := runs(func(i int) float64 { return 1 + 0.002*float64(i%5) }, nil)
	faster := func(i int) float64 { return 0.8 + 0.002*float64(i%5) }
	for _, tc := range []struct {
		name                string
		new                 []*result
		wantFailed, wantLat string
	}{
		{"faster, no failures", runs(faster, nil), verdictSame, verdictGain},
		{"faster but failing requests", runs(faster, func(i int, r *result) {
			if i == 3 {
				r.Failed, r.Correct = 2, false
			}
		}), verdictRegress, verdictUnresolved},
		{"faster but an output differs", runs(faster, func(i int, r *result) {
			r.Correct = i != 0
		}), verdictRegress, verdictUnresolved},
		{"an invalid run is left out", runs(func(i int) float64 { return base[i].Metrics[lower.Name].Value }, func(i int, r *result) {
			r.Valid = i != 9
		}), verdictSame, verdictUnresolved}, // 9 pairs left
		{"traced runs are not judged", runs(faster, func(i int, r *result) {
			r.Traced, r.Failed = true, 5
		}), "", ""},
	} {
		got := map[string]string{}
		for _, v := range compareRuns([]boundSpec{lower}, base, tc.new) {
			got[v.Metric] = v.Outcome
		}
		if got[failedMetric] != tc.wantFailed || got[lower.Name] != tc.wantLat {
			t.Errorf("%s: failed %q, latency %q; want %q, %q", tc.name, got[failedMetric], got[lower.Name], tc.wantFailed, tc.wantLat)
		}
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(xs, n=4), which the spread rule is stated in.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6}, // Python extrapolates beyond two points too
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestCovered(t *testing.T) {
	sp := func(start, dur int64) span { return span{StartUS: start, DurUS: dur} }
	for _, tc := range []struct {
		spans []span
		want  int64
	}{
		{nil, 0},
		{[]span{sp(0, 10)}, 10},
		{[]span{sp(0, 10), sp(5, 10)}, 15},           // overlapping workers
		{[]span{sp(20, 5), sp(0, 10)}, 15},           // disjoint, out of order
		{[]span{sp(0, 30), sp(5, 5), sp(40, 1)}, 31}, // nested
		{[]span{sp(0, 10), sp(3, -1)}, 10},           // still open
	} {
		if got := covered(tc.spans); got != tc.want {
			t.Errorf("covered(%v) = %d, want %d", tc.spans, got, tc.want)
		}
	}
}
