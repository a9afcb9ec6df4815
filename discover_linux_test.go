//go:build linux

package autofeat

import (
	"bytes"
	"context"
	"os"
	"runtime"
	"strings"
	"testing"

	"autofeat/internal/datagen"
	"autofeat/internal/frame"
)

// afcMappings counts the file mappings of columnar tables under dir that
// this process holds.
func afcMappings(t *testing.T, dir string) int {
	t.Helper()
	b, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(string(b), "\n") {
		if strings.Contains(line, dir) && strings.HasSuffix(line, frame.FormatExt) {
			n++
		}
	}
	return n
}

// tableCells renders every cell of the tables as CSV.
func tableCells(t *testing.T, tables ...*Table) string {
	t.Helper()
	var b bytes.Buffer
	for _, f := range tables {
		if err := f.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// TestDiscoverLeavesNoMappings runs one-shot Discover repeatedly on a
// packed lake. A mapping is never unmapped, so a one-shot open that
// mapped its tables would leave one per table per call for the life of
// the process; the count must not grow. The result must stay whole after
// a collection: every cell of the best table and of the base table reads
// as in a run over the CSV lake.
func TestDiscoverLeavesNoMappings(t *testing.T) {
	d, err := datagen.Generate(datagen.SmallSpecs()[0])
	if err != nil {
		t.Fatal(err)
	}
	dir := writeLakeCSVs(t, d)
	if _, err := PackLake(dir); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := DefaultConfig()
	cfg.TopK = 1
	req := Request{Base: d.Base.Name(), Label: d.Label, Model: "knn", Config: &cfg}
	csvLake, err := OpenLake(dir, WithFormat(FormatCSV))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := csvLake.Discover(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	want := tableCells(t, ref.Augment.Table, ref.Ranking.Base)

	before := afcMappings(t, dir)
	var res *LakeResult
	for i := 0; i < 10; i++ {
		if res, err = Discover(ctx, dir, req); err != nil {
			t.Fatal(err)
		}
	}
	if after := afcMappings(t, dir); after != before {
		t.Fatalf("10 one-shot Discover calls left %d columnar mappings behind (%d before)", after, before)
	}
	runtime.GC()
	// Churn the heap so memory the collector freed is reused.
	for i := 0; i < 64; i++ {
		_ = bytes.Repeat([]byte{0xff}, 1<<16)
	}
	runtime.GC()
	if got := tableCells(t, res.Augment.Table, res.Ranking.Base); got != want {
		t.Fatal("after a collection the one-shot result's cells no longer read as the CSV lake's")
	}
}
