//go:build linux

package autofeat

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"autofeat/internal/datagen"
	"autofeat/internal/frame"
	"autofeat/internal/obsrv"
	"autofeat/internal/serve"
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

// TestDiscoverLeavesNoMappings opens a packed lake, repeatedly, every
// way the module opens one: one-shot Discover, OpenLake dropped in a
// loop, table replaces and drops on a resident lake, and a served lake
// registered again and again under one id. A mapping would outlive the
// tables read through it, so none of these may add a mapping of an .afc
// file. The tables each case still holds must stay whole after a
// collection: every cell reads as in the CSV lake.
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
	csvTables := csvLake.Tables()
	// The replace-drop case replaces one non-base table and drops another.
	var others []int
	for i, tab := range csvTables {
		if tab.Name() != d.Base.Name() {
			others = append(others, i)
		}
	}
	if len(others) < 2 {
		t.Fatalf("lake has %d non-base tables, want 2", len(others))
	}
	replaced, drop := csvTables[others[0]].Name(), others[1]

	cases := []struct {
		name string
		// run opens the packed lake its way and returns the tables it
		// still holds and their twins in the CSV lake.
		run func(t *testing.T) (held, want []*Table)
	}{
		{"discover", func(t *testing.T) ([]*Table, []*Table) {
			var res *LakeResult
			for i := 0; i < 10; i++ {
				var err error
				if res, err = Discover(ctx, dir, req); err != nil {
					t.Fatal(err)
				}
			}
			return []*Table{res.Augment.Table, res.Ranking.Base}, []*Table{ref.Augment.Table, ref.Ranking.Base}
		}},
		{"open-lake", func(t *testing.T) ([]*Table, []*Table) {
			var l *Lake
			for i := 0; i < 10; i++ {
				var err error
				if l, err = OpenLake(dir); err != nil {
					t.Fatal(err)
				}
			}
			return l.Tables(), csvTables
		}},
		{"replace-drop", func(t *testing.T) ([]*Table, []*Table) {
			l, err := OpenLake(dir)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				f, err := frame.ReadColumnarFile(filepath.Join(dir, replaced+frame.FormatExt))
				if err != nil {
					t.Fatal(err)
				}
				if err := l.ReplaceTable(f); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.DropTable(csvTables[drop].Name()); err != nil {
				t.Fatal(err)
			}
			want := append(append([]*Table(nil), csvTables[:drop]...), csvTables[drop+1:]...)
			return l.Tables(), want
		}},
		{"serve-reregister", func(t *testing.T) ([]*Table, []*Table) {
			svc := serve.New(serve.Config{Workers: 1})
			srv := obsrv.NewServer(obsrv.Config{})
			svc.Mount(srv)
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			body := fmt.Sprintf(`{"id":"packed","dir":%q}`, dir)
			for i := 0; i < 10; i++ {
				resp, err := http.Post(ts.URL+"/v1/lakes", "application/json", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusCreated {
					t.Fatalf("POST /v1/lakes: %s", resp.Status)
				}
			}
			return svc.Lake("packed").Tables(), csvTables
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := afcMappings(t, dir)
			held, want := tc.run(t)
			if after := afcMappings(t, dir); after != before {
				t.Fatalf("left %d columnar mappings behind (%d before)", after, before)
			}
			runtime.GC()
			// Churn the heap so memory the collector freed is reused.
			for i := 0; i < 64; i++ {
				_ = bytes.Repeat([]byte{0xff}, 1<<16)
			}
			runtime.GC()
			if got := tableCells(t, held...); got != tableCells(t, want...) {
				t.Fatal("after a collection the held tables' cells no longer read as the CSV lake's")
			}
		})
	}
}
