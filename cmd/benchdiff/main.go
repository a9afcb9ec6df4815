// Command benchdiff compares two directories of the BENCH_*.json
// baselines `make bench` writes and fails when wall-clock time
// regressed. It is the CI-friendly half of the performance workflow:
// regenerate candidate baselines, diff them against the committed ones,
// and let the exit code gate the change.
//
// Usage:
//
//	benchdiff [-threshold pct] OLD_DIR NEW_DIR
//
// Every BENCH_*.json in NEW_DIR is diffed against the file of the same
// name in OLD_DIR (a file OLD_DIR lacks is reported and skipped). Rows
// are paired by (mode, workers), where workers is the pool, worker or
// table count the row ran at. Exit status is 0 when no paired row
// slowed down by more than -threshold percent, 1 on regression, 2 on
// usage or read errors.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// benchEntry is one row of a baseline file (docs/OPERATIONS.md
// "Performance baselines" describes the schema).
type benchEntry struct {
	Mode          string         `json:"mode,omitempty"`
	Workers       int            `json:"workers"`
	Iterations    int            `json:"iterations"`
	NsPerOp       int64          `json:"ns_per_op"`
	SpeedupVs1    float64        `json:"speedup_vs_1"`
	JobsPerWorker map[string]int `json:"jobs_per_worker,omitempty"`
}

// rowKey pairs rows across the two files.
type rowKey struct {
	mode    string
	workers int
}

// benchDoc mirrors the one BENCH_*.json schema TestWriteBench writes.
type benchDoc struct {
	Benchmark  string       `json:"benchmark"`
	Dataset    string       `json:"dataset"`
	Rows       int          `json:"rows"`
	Tables     int          `json:"joinable_tables"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	NumCPU     int          `json:"num_cpu"`
	Results    []benchEntry `json:"results"`
}

// rowDiff is the comparison of one row across the two files.
type rowDiff struct {
	Mode       string
	Workers    int
	OldNs      int64
	NewNs      int64
	DeltaPct   float64 // positive = slower
	Regression bool
}

// label renders the row key for the report table.
func (d rowDiff) label() string {
	if d.Mode != "" {
		return fmt.Sprintf("%s/w%d", d.Mode, d.Workers)
	}
	return fmt.Sprintf("%d", d.Workers)
}

func loadDoc(path string) (*benchDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc benchDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Results) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return &doc, nil
}

// diff pairs the two baselines' rows by (mode, workers) and flags every
// row whose ns/op grew by more than thresholdPct percent. Rows present
// in only one file are skipped (they have nothing to compare against).
func diff(oldDoc, newDoc *benchDoc, thresholdPct float64) []rowDiff {
	oldBy := map[rowKey]benchEntry{}
	for _, e := range oldDoc.Results {
		oldBy[rowKey{e.Mode, e.Workers}] = e
	}
	var out []rowDiff
	for _, n := range newDoc.Results {
		o, ok := oldBy[rowKey{n.Mode, n.Workers}]
		if !ok || o.NsPerOp <= 0 {
			continue
		}
		pct := (float64(n.NsPerOp) - float64(o.NsPerOp)) / float64(o.NsPerOp) * 100
		out = append(out, rowDiff{
			Mode:       n.Mode,
			Workers:    n.Workers,
			OldNs:      o.NsPerOp,
			NewNs:      n.NsPerOp,
			DeltaPct:   pct,
			Regression: pct > thresholdPct,
		})
	}
	return out
}

// report renders the comparison table and returns whether any row
// regressed.
func report(w io.Writer, oldDoc, newDoc *benchDoc, diffs []rowDiff, thresholdPct float64) bool {
	if oldDoc.Benchmark != newDoc.Benchmark || oldDoc.Dataset != newDoc.Dataset {
		fmt.Fprintf(w, "warning: comparing %s/%s against %s/%s\n",
			oldDoc.Benchmark, oldDoc.Dataset, newDoc.Benchmark, newDoc.Dataset)
	}
	if oldDoc.GOMAXPROCS != newDoc.GOMAXPROCS {
		fmt.Fprintf(w, "warning: GOMAXPROCS differs (old %d, new %d); timings are not directly comparable\n",
			oldDoc.GOMAXPROCS, newDoc.GOMAXPROCS)
	}
	fmt.Fprintf(w, "%-20s %14s %14s %9s\n", "row", "old ns/op", "new ns/op", "delta")
	regressed := false
	for _, d := range diffs {
		mark := ""
		if d.Regression {
			mark = "  REGRESSION"
			regressed = true
		}
		fmt.Fprintf(w, "%-20s %14d %14d %+8.1f%%%s\n", d.label(), d.OldNs, d.NewNs, d.DeltaPct, mark)
	}
	if regressed {
		fmt.Fprintf(w, "FAIL: wall-clock regression beyond %.1f%% threshold\n", thresholdPct)
	} else {
		fmt.Fprintf(w, "ok: within %.1f%% threshold\n", thresholdPct)
	}
	return regressed
}

// diffDirs reports every BENCH_*.json in newDir against the file of the
// same name in oldDir and returns whether any row regressed.
func diffDirs(w io.Writer, oldDir, newDir string, thresholdPct float64) (bool, error) {
	paths, err := filepath.Glob(filepath.Join(newDir, "BENCH_*.json"))
	if err != nil {
		return false, err
	}
	if len(paths) == 0 {
		return false, fmt.Errorf("no BENCH_*.json in %s", newDir)
	}
	regressed := false
	for _, newPath := range paths {
		name := filepath.Base(newPath)
		oldDoc, err := loadDoc(filepath.Join(oldDir, name))
		if errors.Is(err, fs.ErrNotExist) {
			fmt.Fprintf(w, "== %s: not in %s, skipped\n", name, oldDir)
			continue
		}
		if err != nil {
			return false, err
		}
		newDoc, err := loadDoc(newPath)
		if err != nil {
			return false, err
		}
		diffs := diff(oldDoc, newDoc, thresholdPct)
		if len(diffs) == 0 {
			return false, fmt.Errorf("%s: no comparable rows between the two files", name)
		}
		fmt.Fprintf(w, "== %s\n", name)
		regressed = report(w, oldDoc, newDoc, diffs, thresholdPct) || regressed
	}
	return regressed, nil
}

func main() {
	threshold := flag.Float64("threshold", 5, "max tolerated ns/op increase in percent before failing")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: benchdiff [-threshold pct] OLD_DIR NEW_DIR\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	regressed, err := diffDirs(os.Stdout, flag.Arg(0), flag.Arg(1), *threshold)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	if regressed {
		os.Exit(1)
	}
}
