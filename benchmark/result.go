package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow repetition does not move it.
const setupReps = 3

// maxGenLag is the p99 send lateness beyond which an open-loop run is
// marked invalid: the generator, not the system, would then be shaping
// the load.
const maxGenLag = 0.020

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env records where a run was made.
type env struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentEnv() env {
	e := env{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// result is one workload run: the end-to-end metrics of an untraced run,
// or the per-layer metrics of a traced one.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Valid     bool              `json:"valid"`
	Env       env               `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// reqStats are the per-request counts a workload reads off each result.
type reqStats struct {
	explored, kept, edges int
	hits, misses          int64
}

// phase is what one measured phase observed.
type phase struct {
	latencies         []float64 // seconds, of requests that succeeded
	elapsed           float64   // seconds from the first send to the last completion
	attempted, failed int
	lags              []float64 // open loop: how late each scheduled send left
	rejected          int       // 429 responses
	explored, kept    []float64
	edges             int
	hits, misses      int64
}

func (p *phase) count(st reqStats) {
	p.explored = append(p.explored, float64(st.explored))
	p.kept = append(p.kept, float64(st.kept))
	p.edges = st.edges
	p.hits += st.hits
	p.misses += st.misses
}

// measurePhases runs the measured part of a run. Untraced, one phase
// takes the whole time. Traced, an untraced and a traced phase take half
// each, so trace_overhead compares the two under the same set-up.
func measurePhases(o options, measure func(seconds float64, rec *recorder) *phase) ([]*phase, *recorder) {
	if !o.Traced {
		return []*phase{measure(o.Seconds, nil)}, nil
	}
	untraced := measure(o.Seconds/2, nil)
	rec := newRecorder()
	return []*phase{untraced, measure(o.Seconds/2, rec)}, rec
}

// finish turns the observations of a run into its result. An untraced
// run reports the end-to-end metrics; a traced run the per-layer ones,
// and writes its spans to tracePath.
func finish(w workload, o options, setups []float64, rssMB float64, phases []*phase, rec *recorder, tracePath string) (*result, error) {
	res := &result{Workload: w.Name, Seed: o.Seed, Traced: o.Traced, Env: currentEnv(), Metrics: map[string]metric{}}
	var lags []float64
	for _, p := range phases {
		res.Attempted += p.attempted
		res.Failed += p.failed
		lags = append(lags, p.lags...)
	}
	res.Correct = res.Failed == 0
	res.Valid = percentile(lags, 0.99) <= maxGenLag
	if !res.Valid {
		fmt.Fprintf(os.Stderr, "%s: generator p99 lag %.1f ms exceeds %.0f ms; run invalid\n", w.Name, 1e3*percentile(lags, 0.99), 1e3*maxGenLag)
	}
	m := res.Metrics
	if rec == nil {
		p := phases[0]
		if len(p.latencies) == 0 {
			return nil, fmt.Errorf("%s: no request succeeded", w.Name)
		}
		m["latency_p50_s"] = metric{percentile(p.latencies, 0.50), "s"}
		m["latency_p90_s"] = metric{percentile(p.latencies, 0.90), "s"}
		m["throughput_rps"] = metric{float64(len(p.latencies)) / p.elapsed, "1/s"}
		m["setup_s"] = metric{median(setups), "s"}
		m["peak_rss_mb"] = metric{rssMB, "MB"}
		return res, nil
	}
	for k, v := range rec.layerMetrics() {
		m[k] = v
	}
	untraced, traced := phases[0], phases[1]
	m["drg.edges"] = metric{float64(traced.edges), "count"}
	m["core.paths_explored"] = metric{median(traced.explored), "count"}
	m["core.paths_kept"] = metric{median(traced.kept), "count"}
	ratio := 0.0
	if n := traced.hits + traced.misses; n > 0 {
		ratio = float64(traced.hits) / float64(n)
	}
	m["relational.key_cache_hit_ratio"] = metric{ratio, "ratio"}
	m["serve.rejected"] = metric{float64(untraced.rejected + traced.rejected), "count"}
	overhead := 0.0
	if len(untraced.latencies) > 0 && len(traced.latencies) > 0 {
		overhead = percentile(traced.latencies, 0.5) / percentile(untraced.latencies, 0.5)
	}
	m["trace_overhead"] = metric{overhead, "ratio"}
	m["gen_lag_p99_s"] = metric{percentile(lags, 0.99), "s"}
	return res, rec.write(tracePath)
}

// peakRSSMB reads the peak resident set size (VmHWM) of a process.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/%d/status", pid)
}
