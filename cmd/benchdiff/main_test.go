package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func doc(ns ...int64) *benchDoc {
	d := &benchDoc{Benchmark: "BenchmarkMicroDiscoveryWorkers", Dataset: "wide", GOMAXPROCS: 4}
	workers := []int{1, 4, 8}
	for i, n := range ns {
		d.Results = append(d.Results, benchEntry{Workers: workers[i], Iterations: 10, NsPerOp: n, SpeedupVs1: 1})
	}
	return d
}

func TestDiffFlagsRegression(t *testing.T) {
	oldDoc := doc(1000, 500, 400)
	newDoc := doc(1040, 600, 390) // +4%, +20%, -2.5%
	diffs := diff(oldDoc, newDoc, 5)
	if len(diffs) != 3 {
		t.Fatalf("diffs = %d, want 3", len(diffs))
	}
	wantReg := []bool{false, true, false}
	for i, d := range diffs {
		if d.Regression != wantReg[i] {
			t.Errorf("workers=%d: regression=%v, want %v (delta %.1f%%)", d.Workers, d.Regression, wantReg[i], d.DeltaPct)
		}
	}
}

// serveDoc builds a cold/warm (mode-keyed) baseline like BENCH_serve.json.
func serveDoc(coldNs, warmNs int64) *benchDoc {
	return &benchDoc{
		Benchmark: "BenchmarkServeColdWarm", Dataset: "smol", GOMAXPROCS: 4,
		Results: []benchEntry{
			{Mode: "cold", Workers: 1, Iterations: 5, NsPerOp: coldNs, SpeedupVs1: 1},
			{Mode: "warm", Workers: 1, Iterations: 5, NsPerOp: warmNs, SpeedupVs1: float64(coldNs) / float64(warmNs)},
		},
	}
}

func TestDiffPairsByMode(t *testing.T) {
	oldDoc := serveDoc(1000, 400)
	newDoc := serveDoc(1010, 600) // warm +50%: regression
	diffs := diff(oldDoc, newDoc, 5)
	if len(diffs) != 2 {
		t.Fatalf("diffs = %d, want 2", len(diffs))
	}
	byMode := map[string]rowDiff{}
	for _, d := range diffs {
		byMode[d.Mode] = d
	}
	if byMode["cold"].Regression {
		t.Errorf("cold row flagged: %+v", byMode["cold"])
	}
	if !byMode["warm"].Regression {
		t.Errorf("warm row not flagged: %+v", byMode["warm"])
	}
	var buf bytes.Buffer
	report(&buf, oldDoc, newDoc, diffs, 5)
	if !strings.Contains(buf.String(), "warm/w1") {
		t.Errorf("report missing mode label:\n%s", buf.String())
	}
	// A mode-keyed row never pairs with a workers-only row.
	if mixed := diff(doc(1000), serveDoc(1000, 400), 5); len(mixed) != 0 {
		t.Errorf("mode row paired with workers-only row: %+v", mixed)
	}
}

func TestDiffSkipsUnpairedRows(t *testing.T) {
	oldDoc := doc(1000)       // workers=1 only
	newDoc := doc(1000, 2000) // workers=1 and 4
	diffs := diff(oldDoc, newDoc, 5)
	if len(diffs) != 1 || diffs[0].Workers != 1 {
		t.Fatalf("diffs = %+v, want only workers=1", diffs)
	}
}

func TestReportOutput(t *testing.T) {
	oldDoc := doc(1000, 500)
	newDoc := doc(1200, 490)
	newDoc.GOMAXPROCS = 8
	var buf bytes.Buffer
	regressed := report(&buf, oldDoc, newDoc, diff(oldDoc, newDoc, 5), 5)
	out := buf.String()
	if !regressed {
		t.Error("expected regression")
	}
	for _, want := range []string{"GOMAXPROCS differs", "REGRESSION", "+20.0%", "-2.0%", "FAIL"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestReportOK(t *testing.T) {
	oldDoc := doc(1000, 500)
	newDoc := doc(1010, 505)
	var buf bytes.Buffer
	if report(&buf, oldDoc, newDoc, diff(oldDoc, newDoc, 5), 5) {
		t.Errorf("unexpected regression:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "ok: within") {
		t.Errorf("missing ok line:\n%s", buf.String())
	}
}

func TestLoadDocErrors(t *testing.T) {
	if _, err := loadDoc(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file: want error")
	}
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, []byte(`{"benchmark":"x","results":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadDoc(empty); err == nil {
		t.Error("empty results: want error")
	}
}

// TestLoadCommittedBaseline keeps benchdiff honest against the real
// files: each committed baseline must load strictly in the one schema,
// record the host it ran on, key every row uniquely (diff pairs rows
// through a map, so a repeated key would hide one) and self-diff clean.
func TestLoadCommittedBaseline(t *testing.T) {
	paths, _ := filepath.Glob("../../BENCH_*.json")
	if len(paths) == 0 {
		t.Fatal("no committed BENCH_*.json baselines")
	}
	for _, path := range paths {
		d, err := loadDoc(path)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := os.ReadFile(path)
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&benchDoc{}); err != nil {
			t.Errorf("%s: not in the one schema: %v", path, err)
		}
		if d.GOMAXPROCS == 0 || d.NumCPU == 0 {
			t.Errorf("%s: gomaxprocs %d, num_cpu %d, want both recorded", path, d.GOMAXPROCS, d.NumCPU)
		}
		seen := map[rowKey]bool{}
		for _, r := range d.Results {
			if k := (rowKey{r.Mode, r.Workers}); r.Mode == "" || seen[k] {
				t.Errorf("%s: row %+v has an empty or repeated (mode, workers) key", path, r)
			} else {
				seen[k] = true
			}
		}
		diffs := diff(d, d, 0)
		if len(diffs) != len(d.Results) {
			t.Fatalf("%s: self-diff rows %d != results %d", path, len(diffs), len(d.Results))
		}
		for _, r := range diffs {
			if r.Regression || r.DeltaPct != 0 {
				t.Errorf("%s: self-diff not clean: %+v", path, r)
			}
		}
	}
}

// TestDiffDirs pairs files by name: a regression in one file fails the
// whole diff, and a file the old directory lacks is skipped.
func TestDiffDirs(t *testing.T) {
	oldDir, newDir := t.TempDir(), t.TempDir()
	write := func(dir, name string, d *benchDoc) {
		b, _ := json.Marshal(d)
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(oldDir, "BENCH_parallel.json", doc(1000, 500))
	write(newDir, "BENCH_parallel.json", doc(1000, 505))
	write(oldDir, "BENCH_serve.json", serveDoc(1000, 400))
	write(newDir, "BENCH_serve.json", serveDoc(1000, 600))
	write(newDir, "BENCH_fresh.json", doc(1000))
	var buf bytes.Buffer
	regressed, err := diffDirs(&buf, oldDir, newDir, 5)
	if err != nil || !regressed {
		t.Fatalf("diffDirs = %v, %v; want a regression", regressed, err)
	}
	for _, want := range []string{"== BENCH_fresh.json: not in", "== BENCH_parallel.json\nrow", "warm/w1", "REGRESSION"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report missing %q:\n%s", want, buf.String())
		}
	}
	if _, err := diffDirs(io.Discard, oldDir, t.TempDir(), 5); err == nil {
		t.Error("empty NEW_DIR: want error")
	}
}
