package autofeat

// Error-taxonomy tests over the public API: every actionable failure
// matches exactly one of the exported sentinels through arbitrary
// rewrapping, and a single corrupt table in a lake prunes only its own
// join paths instead of aborting discovery.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autofeat/internal/core"
	"autofeat/internal/discovery"
)

// writeTaxonomyLake writes a four-file CSV lake: base -> bridge -> gold
// carries the signal, and corrupt.csv is unparseable (ragged row).
func writeTaxonomyLake(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	var base, bridge, gold strings.Builder
	base.WriteString("id,noise,target\n")
	bridge.WriteString("pid,ref\n")
	gold.WriteString("key,signal\n")
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&base, "%d,%d,%d\n", i, (i*13)%7, i%2)
		fmt.Fprintf(&bridge, "%d,%d\n", i, i+1000)
		fmt.Fprintf(&gold, "%d,%d\n", i+1000, (i%2)*5)
	}
	files := map[string]string{
		"base.csv":    base.String(),
		"bridge.csv":  bridge.String(),
		"gold.csv":    gold.String(),
		"corrupt.csv": "a,b\n1,2\n3\n",
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestErrorTaxonomyWrapChain checks that public-API failures match their
// sentinel via errors.Is — including after another layer of fmt.Errorf
// wrapping — and that the sentinels stay mutually exclusive.
func TestErrorTaxonomyWrapChain(t *testing.T) {
	dir := writeTaxonomyLake(t)
	_, readErr := OpenLake(dir, WithFormat(FormatCSV))
	if readErr == nil {
		t.Fatal("OpenLake accepted a corrupt CSV")
	}
	_, modelErr := ModelByName("definitely-not-a-model")
	if modelErr == nil {
		t.Fatal("ModelByName accepted an unknown name")
	}
	cases := []struct {
		name string
		err  error
		want error
	}{
		{"corrupt csv in lake", readErr, ErrBadInput},
		{"unknown model", modelErr, ErrBadInput},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if !errors.Is(tc.err, tc.want) {
				t.Fatalf("%v does not match its sentinel", tc.err)
			}
			rewrapped := fmt.Errorf("harness: %w", tc.err)
			if !errors.Is(rewrapped, tc.want) {
				t.Fatalf("rewrapped %v lost its sentinel", rewrapped)
			}
			for _, other := range []error{ErrBadInput, ErrBudgetExceeded, ErrCancelled} {
				if other != tc.want && errors.Is(tc.err, other) {
					t.Fatalf("%v matches foreign sentinel %v", tc.err, other)
				}
			}
		})
	}
}

// TestCorruptTablePrunesOnlyItsPaths is the regression for graceful lake
// degradation: OpenLakeLenient drops the corrupt file (reporting it
// as an ErrBadInput-matching error) and discovery over the remaining
// tables completes with the paths the corrupt table never touched.
func TestCorruptTablePrunesOnlyItsPaths(t *testing.T) {
	dir := writeTaxonomyLake(t)
	l, errs := OpenLakeLenient(dir, WithFormat(FormatCSV))
	if l == nil {
		t.Fatalf("lenient open failed: %v", errs)
	}
	tables := l.Tables()
	if len(tables) != 3 {
		t.Fatalf("lenient read kept %d tables, want 3", len(tables))
	}
	if len(errs) != 1 {
		t.Fatalf("lenient read reported %d errors, want 1", len(errs))
	}
	if !errors.Is(errs[0], ErrBadInput) {
		t.Fatalf("skipped-file error %v does not match ErrBadInput", errs[0])
	}
	if !strings.Contains(errs[0].Error(), "corrupt.csv") {
		t.Fatalf("skipped-file error %v does not name the file", errs[0])
	}
	for _, tab := range tables {
		if tab.Name() == "corrupt" {
			t.Fatal("corrupt table survived the lenient read")
		}
	}

	g, err := discovery.BuildBenchmarkDRG(tables, []KFK{
		{ParentTable: "base", ParentCol: "id", ChildTable: "bridge", ChildCol: "pid"},
		{ParentTable: "bridge", ParentCol: "ref", ChildTable: "gold", ChildCol: "key"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SampleSize = 0
	disc, err := core.New(g, "base", "target", cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := disc.Run()
	if err != nil {
		t.Fatalf("discovery over the surviving lake failed: %v", err)
	}
	if r.Partial {
		t.Fatalf("run unexpectedly partial: %q", r.PartialReason)
	}
	if len(r.Paths) == 0 {
		t.Fatal("no join paths ranked over the surviving tables")
	}
	for _, p := range r.Paths {
		for _, e := range p.Edges {
			if e.A == "corrupt" || e.B == "corrupt" {
				t.Fatalf("path touches the dropped table: %v", p.Edges)
			}
		}
	}

	// A cancelled materialisation of a surviving path surfaces
	// ErrCancelled with the context cause still on the chain.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = disc.MaterializePathContext(ctx, r.Paths[0], r.Base)
	if err == nil {
		t.Fatal("cancelled materialisation did not error")
	}
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("materialisation abort %v must match ErrCancelled and context.Canceled", err)
	}
}
