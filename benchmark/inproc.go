package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"time"

	"autofeat"
)

// childEnv marks a child process of the benchmark. In-process workloads
// run in a fresh child so each gets a clean heap and its own peak RSS;
// the parent keeps lake generation and the reference runs out of it.
const childEnv = "AUTOFEAT_BENCH_CHILD"

// childJob is what the parent hands the child on standard input.
type childJob struct {
	Workload  workload  `json:"workload"`
	Opts      options   `json:"opts"`
	Lakes     []lakeRun `json:"lakes"`
	TracePath string    `json:"trace_path"`
}

// lakeRun is one generated lake of a run and the expected output of an
// in-process request against it.
type lakeRun struct {
	Dir    string         `json:"dir"`
	Base   string         `json:"base"`
	Expect string         `json:"expect"`
	lake   *autofeat.Lake // resident workloads: the lake opened at set-up
}

// runChild runs an in-process workload in a child process of this
// binary and returns the result it prints.
func runChild(ctx context.Context, job childJob) (*result, error) {
	in, err := json.Marshal(job)
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stdin = bytes.NewReader(in)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s child: %w", job.Workload.Name, err)
	}
	var res result
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("%s child output: %w", job.Workload.Name, err)
	}
	return &res, nil
}

// childMain is the entry point of a child process.
func childMain() int {
	var job childJob
	if err := json.NewDecoder(os.Stdin).Decode(&job); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 1
	}
	res, err := runInProcess(context.Background(), job)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark child %s: %v\n", job.Workload.Name, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 1
	}
	return 0
}

// runInProcess sets up and measures a one-shot or resident workload.
// Set-up packs every lake and, for a resident workload, opens it and runs
// one checked warm-up request; it is repeated setupReps times and timed.
func runInProcess(ctx context.Context, job childJob) (*result, error) {
	w, lakes := job.Workload, job.Lakes
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		for k := range lakes {
			l := &lakes[k]
			if _, err := autofeat.PackLake(l.Dir); err != nil {
				return nil, err
			}
			if w.Kind != kindResident {
				continue
			}
			lk, err := autofeat.OpenLake(l.Dir)
			if err != nil {
				return nil, err
			}
			l.lake = lk
			fp, _, err := request(ctx, w, l, nil)
			if err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			if fp != l.Expect {
				return nil, fmt.Errorf("warm-up output %s differs from the reference %s", fp, l.Expect)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	phases, rec := measurePhases(job.Opts, func(seconds float64, rec *recorder) *phase {
		return measure(ctx, w, lakes, seconds, rec)
	})
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	return finish(w, job.Opts, setups, rss, phases, rec, job.TracePath)
}

// measure is a closed loop with one client: each request is sent when
// the previous one returns, to the run's lakes in turn, until the phase's
// time is up.
func measure(ctx context.Context, w workload, lakes []lakeRun, seconds float64, rec *recorder) *phase {
	p := &phase{}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) && (w.MaxRequests == 0 || p.attempted < w.MaxRequests) {
		l := &lakes[p.attempted%len(lakes)]
		t0 := time.Now()
		fp, st, err := request(ctx, w, l, rec)
		lat := time.Since(t0).Seconds()
		p.attempted++
		switch {
		case err != nil:
			p.failed++
			fmt.Fprintf(os.Stderr, "%s: request failed: %v\n", w.Name, err)
		case fp != l.Expect:
			p.failed++
			fmt.Fprintf(os.Stderr, "%s: output %s differs from the reference %s\n", w.Name, fp, l.Expect)
		default:
			p.latencies = append(p.latencies, lat)
			p.count(st)
		}
	}
	p.elapsed = time.Since(start).Seconds()
	return p
}

// request runs one request and returns its output fingerprint. Untraced,
// it is the single public call a user makes: autofeat.Discover for a
// one-shot workload, Lake.Discover for a resident one. Traced, it makes
// the same calls Discover makes inside, manifest included, with a bench
// span around each call into a layer, so each layer is timed from outside
// and both paths do the same work.
func request(ctx context.Context, w workload, l *lakeRun, rec *recorder) (string, reqStats, error) {
	cfg := w.config(0)
	cfg.Telemetry = rec.collector()
	var st reqStats
	if rec == nil {
		req := autofeat.Request{Base: l.Base, Label: "target", Model: w.Model, Config: &cfg}
		var h0, m0 int64
		var res *autofeat.LakeResult
		var err error
		if l.lake == nil {
			res, err = autofeat.Discover(ctx, l.Dir, req)
		} else {
			h0, m0 = l.lake.CacheStats()
			res, err = l.lake.Discover(ctx, req)
		}
		if err != nil {
			return "", st, err
		}
		st = reqStats{res.Ranking.PathsExplored, len(res.Ranking.Paths), res.GraphEdges, res.CacheHits - h0, res.CacheMisses - m0}
		return fingerprint(res.Ranking, res.Augment), st, nil
	}

	trace := rec.newTrace()
	lk := l.lake
	if lk == nil {
		sp := rec.start("lake.open", trace)
		var err error
		lk, err = autofeat.OpenLake(l.Dir)
		sp.end()
		if err != nil {
			return "", st, err
		}
	}
	h0, m0 := lk.CacheStats()
	sp := rec.start("lake.drg", trace)
	g, err := lk.DRG()
	sp.end()
	if err != nil {
		return "", st, err
	}
	d, err := lk.NewDiscovery(l.Base, "target", cfg)
	if err != nil {
		return "", st, err
	}
	sp = rec.start("core.run", trace)
	ranking, err := d.RunContext(sp.context(ctx))
	sp.end()
	if err != nil {
		return "", st, err
	}
	manifest := d.Manifest(ranking)
	var aug *autofeat.AugmentResult
	if w.Model != "" {
		f, err := autofeat.ModelByName(w.Model)
		if err != nil {
			return "", st, err
		}
		sp = rec.start("core.evaluate", trace)
		aug, err = d.EvaluateRankingContext(sp.context(ctx), ranking, f)
		sp.end()
		if err != nil {
			return "", st, err
		}
		manifest.AttachEvaluation(aug)
	}
	h1, m1 := lk.CacheStats()
	st = reqStats{ranking.PathsExplored, len(ranking.Paths), g.NumEdges(), h1 - h0, m1 - m0}
	return fingerprint(ranking, aug), st, nil
}
