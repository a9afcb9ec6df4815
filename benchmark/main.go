// Command benchmark is AutoFeat's end-to-end benchmark. It runs four
// workloads against the system's public surfaces — the root autofeat API
// in-process, and a real `autofeat serve` process over the /v1 HTTP API —
// checks every response against a reference computed with one worker on
// a fresh lake, and prints every end-to-end metric with its unit. With
// -trace 1 it instead reports the per-layer split: bench spans around
// each public call plus the spans the program records itself.
//
// Usage (from the benchmark directory, or through run.sh from the root):
//
//	go run . -seed 1                        # all workloads, end-to-end metrics
//	go run . -workload warm-rank -trace 1   # one workload, per-layer metrics
//	go run . -seed 1 -out runs/a/01.json    # also write the results (and traces) to files
//	go run . compare -old runs/a -new runs/b
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

// options are the settings of one benchmark invocation.
type options struct {
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	Autofeat string  `json:"autofeat"` // the autofeat binary served workloads start
}

func main() {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain())
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "all", "workload to run, or all")
		seed    = fs.Int64("seed", 1, "seed of the generated lakes and request schedules")
		seconds = fs.Float64("seconds", 25, "measured seconds per workload")
		trace   = fs.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
		out     = fs.String("out", "", "also write the results to this JSON file, and traces beside it")
		dir     = fs.String("dir", ".bench_build/runs", "directory for generated lakes, server logs and traces")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ws := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		ws = []workload{w}
	}
	o := options{Seed: *seed, Seconds: *seconds, Traced: *trace == 1}
	// An interrupt cancels the run, which still stops and waits for every
	// process it started.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	results, err := runWorkloads(ctx, ws, o, *dir, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *out != "" {
		b, err := json.MarshalIndent(results, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	printResults(stdout, results)
	return 0
}

// runWorkloads runs each workload in turn. For each it generates the lake
// under dir, computes the reference outputs and measures the workload.
func runWorkloads(ctx context.Context, ws []workload, o options, dir, out string) ([]*result, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if needsServer(ws) {
		if o.Autofeat, err = buildAutofeat(filepath.Join(dir, "bin")); err != nil {
			return nil, err
		}
	}
	e := currentEnv()
	fmt.Fprintf(os.Stderr, "benchmark: seed=%d seconds=%g trace=%t gomaxprocs=%d num_cpu=%d go=%s commit=%s\n",
		o.Seed, o.Seconds, o.Traced, e.GOMAXPROCS, e.NumCPU, e.GoVersion, e.Commit)
	var results []*result
	for _, w := range ws {
		runDir := filepath.Join(dir, w.Name)
		if err := os.RemoveAll(runDir); err != nil {
			return nil, err
		}
		tracePath := filepath.Join(runDir, "trace.json")
		if out != "" {
			tracePath = strings.TrimSuffix(out, ".json") + "." + w.Name + ".trace.json"
		}
		lakes := make([]lakeRun, w.Lakes)
		var refs map[jobClass]string
		for k := range lakes {
			l := &lakes[k]
			l.Dir = filepath.Join(runDir, fmt.Sprintf("lake-%02d", k))
			if err := os.MkdirAll(l.Dir, 0o755); err != nil {
				return nil, err
			}
			if l.Base, err = w.Shape.write(l.Dir, o.Seed+w.LakeSeedOffset+1000*int64(k)); err != nil {
				return nil, fmt.Errorf("%s: generate lake: %w", w.Name, err)
			}
			if refs, err = w.references(ctx, l.Dir, l.Base); err != nil {
				return nil, fmt.Errorf("%s: %w", w.Name, err)
			}
			l.Expect = refs[w.classes()[0]]
		}
		var res *result
		if w.Kind == kindServed {
			res, err = runServed(ctx, w, o, lakes[0], runDir, refs, tracePath)
		} else {
			res, err = runChild(ctx, childJob{Workload: w, Opts: o, Lakes: lakes, TracePath: tracePath})
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d attempted, %d failed\n", w.Name, res.Attempted, res.Failed)
		results = append(results, res)
	}
	return results, nil
}

func needsServer(ws []workload) bool {
	for _, w := range ws {
		if w.Kind == kindServed {
			return true
		}
	}
	return false
}

// buildAutofeat builds the autofeat command from source into dir.
func buildAutofeat(dir string) (string, error) {
	bin := filepath.Join(dir, "autofeat")
	cmd := exec.Command("go", "build", "-o", bin, "autofeat/cmd/autofeat")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build autofeat: %w", err)
	}
	return bin, nil
}

// printResults prints every metric of every result, then the summary
// line: one result as it is, several with each metric name prefixed by
// its workload.
func printResults(w io.Writer, results []*result) {
	sum := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, r := range results {
		names := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(w, "%-14s %-40s %14.6g %s\n", r.Workload, k, r.Metrics[k].Value, r.Metrics[k].Unit)
			key := k
			if len(results) > 1 {
				key = r.Workload + "." + k
			}
			sum.Metrics[key] = r.Metrics[k]
		}
		sum.Correct = sum.Correct && r.Correct
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
	}
	b, _ := json.Marshal(sum) // plain numbers and strings always marshal
	fmt.Fprintln(w, string(b))
}
