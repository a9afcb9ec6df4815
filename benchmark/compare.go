package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// boundSpec is one end-to-end metric of BENCHMARK.json.
type boundSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// minPairs is the fewest (old, new) run pairs a verdict rests on.
const minPairs = 10

// Verdicts of compare for one (metric, workload) pair.
const (
	verdictSame       = "same"
	verdictGain       = "gain"
	verdictRegress    = "regress"
	verdictUnresolved = "unresolved"
)

// verdict is the comparison of one metric on one workload.
type verdict struct {
	Workload, Metric  string
	Outcome           string
	Reason            string // why a verdict is unresolved
	Pairs, Wins       int
	OldMedian, OldIQR float64
	NewMedian         float64
	Spread            float64 // the wider side's IQR as a share of its median
	Delta             float64 // (new - old) / old median
	Bound             float64
}

// compareMain implements `benchmark compare -old DIR -new DIR`: it reads
// the -out files of two sets of untraced runs and applies the bounds of
// BENCHMARK.json. Exit status is 0 when nothing regressed, 1 on a
// regression, 2 on usage or read errors.
func compareMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	oldDir := fs.String("old", "", "directory of the parent's run files")
	newDir := fs.String("new", "", "directory of the change's run files")
	spec := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *oldDir == "" || *newDir == "" {
		fmt.Fprintln(os.Stderr, "compare: -old and -new are required")
		return 2
	}
	bounds, err := loadBounds(*spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	oldRuns, err := loadRuns(*oldDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	newRuns, err := loadRuns(*newDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	vs := compareRuns(bounds, oldRuns, newRuns)
	printVerdicts(stdout, bounds, vs)
	for _, line := range movedSpans(oldRuns, newRuns) {
		fmt.Fprintln(stdout, line)
	}
	for _, v := range vs {
		if v.Outcome == verdictRegress {
			return 1
		}
	}
	return 0
}

func loadBounds(path string) ([]boundSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []boundSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc.EndToEnd, nil
}

// loadRuns reads every result file (-out) in dir, in file-name order.
func loadRuns(dir string) ([]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []*result
	for _, p := range paths {
		if strings.HasSuffix(p, ".trace.json") {
			continue
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rs []*result
		if err := json.Unmarshal(b, &rs); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, rs...)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no run files in %s", dir)
	}
	return out, nil
}

// series returns, per workload, the values of metric over the untraced
// valid runs in run order. An invalid run's load was shaped by a late
// generator, not by the system, so its timings are left out.
func series(runs []*result, metric string) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok && !r.Traced && r.Valid {
			out[r.Workload] = append(out[r.Workload], m.Value)
		}
	}
	return out
}

// failedMetric names the verdict on a workload's failures, which compare
// reports beside the end-to-end metrics. Its bound is zero: a change may
// fail no larger share of requests than its parent, and may return no
// output that differs from its reference.
const failedMetric = "failed"

// tally is what one side's untraced runs of a workload did.
type tally struct {
	failed, attempted  int
	incorrect, invalid int // runs
}

func (t tally) failedFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

func tallies(runs []*result) map[string]tally {
	out := map[string]tally{}
	for _, r := range runs {
		if r.Traced {
			continue
		}
		t := out[r.Workload]
		t.failed += r.Failed
		t.attempted += r.Attempted
		if !r.Correct {
			t.incorrect++
		}
		if !r.Valid {
			t.invalid++
		}
		out[r.Workload] = t
	}
	return out
}

// judgeFailures regresses a workload whose new runs fail a larger share
// of their requests than the old ones, or that has any new run with an
// incorrect output.
func judgeFailures(old, new tally) verdict {
	v := verdict{Metric: failedMetric, Outcome: verdictSame, Delta: new.failedFrac() - old.failedFrac()}
	if new.incorrect > 0 || new.failedFrac() > old.failedFrac() {
		v.Outcome = verdictRegress
	}
	v.Reason = fmt.Sprintf("%d of %d requests failed in %d incorrect runs, parent %d of %d in %d; invalid runs left out: %d new, %d old",
		new.failed, new.attempted, new.incorrect, old.failed, old.attempted, old.incorrect, new.invalid, old.invalid)
	return v
}

// compareRuns judges every (metric, workload) pair present on both sides,
// and the failures of every workload. A workload whose failures regress
// gains on no metric.
func compareRuns(bounds []boundSpec, oldRuns, newRuns []*result) []verdict {
	var vs []verdict
	oldT, newT := tallies(oldRuns), tallies(newRuns)
	var names []string
	for w := range oldT {
		if _, ok := newT[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	failing := map[string]bool{}
	for _, w := range names {
		v := judgeFailures(oldT[w], newT[w])
		v.Workload = w
		failing[w] = v.Outcome == verdictRegress
		vs = append(vs, v)
	}
	for _, b := range bounds {
		olds, news := series(oldRuns, b.Name), series(newRuns, b.Name)
		for _, w := range names {
			if len(olds[w]) == 0 || len(news[w]) == 0 {
				continue
			}
			v := judge(b, olds[w], news[w])
			v.Workload = w
			if failing[w] && v.Outcome == verdictGain {
				v.Outcome, v.Reason = verdictUnresolved, "more requests failed than at the parent"
			}
			vs = append(vs, v)
		}
	}
	return vs
}

// judge applies the rule of the benchmark's README to one metric: runs
// pair up in order (alternate the two sides when making them). A gain
// needs at least 9 wins in 10 pairs and a median gap wider than the
// old side's interquartile range; a regression is a median worse by more
// than the bound. A metric whose spread exceeds its bound is unresolved
// unless every new run beats every old one, and so is one with fewer
// than minPairs pairs.
func judge(b boundSpec, old, new []float64) verdict {
	v := verdict{Metric: b.Name, Bound: b.Bound}
	lowerIsBetter := b.Better != "higher"
	better := func(x, y float64) bool { // x reads better than y
		if lowerIsBetter {
			return x < y
		}
		return x > y
	}
	v.Pairs = min(len(old), len(new))
	for i := 0; i < v.Pairs; i++ {
		if better(new[i], old[i]) {
			v.Wins++
		}
	}
	q1o, mo, q3o := quartiles(old)
	q1n, mn, q3n := quartiles(new)
	v.OldMedian, v.NewMedian, v.OldIQR = mo, mn, q3o-q1o
	v.Spread = math.Max(relative(q3o-q1o, mo), relative(q3n-q1n, mn))
	v.Delta = relative(mn-mo, mo)
	worse := v.Delta
	if !lowerIsBetter {
		worse = -worse
	}
	everyNewBetter := better(worstOf(new, better), bestOf(old, better))
	switch {
	case v.Pairs < minPairs:
		v.Outcome, v.Reason = verdictUnresolved, fmt.Sprintf("%d pairs, need %d", v.Pairs, minPairs)
	case better(mn, mo) && v.Wins*10 >= 9*v.Pairs && math.Abs(mn-mo) > v.OldIQR:
		v.Outcome = verdictGain
	case v.Spread > b.Bound && !everyNewBetter:
		v.Outcome, v.Reason = verdictUnresolved, fmt.Sprintf("spread %.1f%% > bound %.1f%%", 100*v.Spread, 100*b.Bound)
	case worse > b.Bound:
		v.Outcome = verdictRegress
	default:
		v.Outcome = verdictSame
	}
	return v
}

func relative(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	return x / base
}

// bestOf and worstOf pick the best and worst value under better.
func bestOf(xs []float64, better func(x, y float64) bool) float64 {
	b := xs[0]
	for _, x := range xs[1:] {
		if better(x, b) {
			b = x
		}
	}
	return b
}

func worstOf(xs []float64, better func(x, y float64) bool) float64 {
	w := xs[0]
	for _, x := range xs[1:] {
		if better(w, x) {
			w = x
		}
	}
	return w
}

// printVerdicts prints one row per workload, one column for its failures
// and one per metric, then the numbers behind every verdict.
func printVerdicts(w io.Writer, bounds []boundSpec, vs []verdict) {
	byWorkload := map[string]map[string]verdict{}
	var workloadsSeen []string
	for _, v := range vs {
		if byWorkload[v.Workload] == nil {
			byWorkload[v.Workload] = map[string]verdict{}
			workloadsSeen = append(workloadsSeen, v.Workload)
		}
		byWorkload[v.Workload][v.Metric] = v
	}
	sort.Strings(workloadsSeen)
	columns := []string{failedMetric}
	for _, b := range bounds {
		columns = append(columns, b.Name)
	}
	fmt.Fprintf(w, "%-14s", "workload")
	for _, c := range columns {
		fmt.Fprintf(w, " %-22s", c)
	}
	fmt.Fprintln(w)
	for _, wl := range workloadsSeen {
		fmt.Fprintf(w, "%-14s", wl)
		for _, c := range columns {
			cell := "-"
			if v, ok := byWorkload[wl][c]; ok {
				cell = fmt.Sprintf("%s %+.1f%%", v.Outcome, 100*v.Delta)
			}
			fmt.Fprintf(w, " %-22s", cell)
		}
		fmt.Fprintln(w)
	}
	for _, v := range vs {
		if v.Metric == failedMetric {
			fmt.Fprintf(w, "  %s %s: %s; %s\n", v.Workload, v.Metric, v.Outcome, v.Reason)
			continue
		}
		fmt.Fprintf(w, "  %s %s: %s; old median %.6g (IQR %.3g), new median %.6g, %d/%d wins, spread %.1f%% (bound %.0f%%)",
			v.Workload, v.Metric, v.Outcome, v.OldMedian, v.OldIQR, v.NewMedian, v.Wins, v.Pairs, 100*v.Spread, 100*v.Bound)
		if v.Reason != "" {
			fmt.Fprintf(w, " [%s]", v.Reason)
		}
		fmt.Fprintln(w)
	}
}

// movedSpans names, per workload with traced runs on both sides, the
// span whose median self time moved most.
func movedSpans(oldRuns, newRuns []*result) []string {
	selfMedians := func(runs []*result) map[string]map[string]float64 {
		vals := map[string]map[string][]float64{}
		for _, r := range runs {
			if !r.Traced {
				continue
			}
			for k, m := range r.Metrics {
				if strings.HasSuffix(k, ".self_s") {
					if vals[r.Workload] == nil {
						vals[r.Workload] = map[string][]float64{}
					}
					vals[r.Workload][k] = append(vals[r.Workload][k], m.Value)
				}
			}
		}
		out := map[string]map[string]float64{}
		for wl, byName := range vals {
			out[wl] = map[string]float64{}
			for k, xs := range byName {
				out[wl][k] = median(xs)
			}
		}
		return out
	}
	olds, news := selfMedians(oldRuns), selfMedians(newRuns)
	var lines []string
	var names []string
	for wl := range olds {
		if news[wl] != nil {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	for _, wl := range names {
		best, gap := "", -1.0
		var keys []string
		for k := range olds[wl] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if d := math.Abs(news[wl][k] - olds[wl][k]); d > gap {
				best, gap = k, d
			}
		}
		if gap <= 0 {
			lines = append(lines, wl+": no span's self time moved")
			continue
		}
		span := strings.TrimSuffix(best, ".self_s")
		lines = append(lines, fmt.Sprintf("%s: self time moved most in %s: %.4g s -> %.4g s", wl, span, olds[wl][best], news[wl][best]))
	}
	return lines
}
