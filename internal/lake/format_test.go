package lake

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autofeat/internal/frame"
)

func TestPackAndAutoDetect(t *testing.T) {
	dir, ds := writeLakeDir(t)
	n, err := Pack(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(ds.Tables) {
		t.Fatalf("packed %d tables, want %d", n, len(ds.Tables))
	}
	// The CSVs stay; the packed files sit alongside them.
	entries, _ := os.ReadDir(dir)
	csvs, afcs := 0, 0
	for _, e := range entries {
		switch {
		case strings.HasSuffix(e.Name(), ".csv"):
			csvs++
		case strings.HasSuffix(e.Name(), frame.FormatExt):
			afcs++
		}
	}
	if csvs != len(ds.Tables) || afcs != len(ds.Tables) {
		t.Fatalf("after pack: %d csv + %d afc files, want %d each", csvs, afcs, len(ds.Tables))
	}

	// Auto mode prefers the packed files and loads identical tables.
	auto, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	csvLake, err := Open(dir, WithFormat(FormatCSV))
	if err != nil {
		t.Fatal(err)
	}
	colr, err := Open(dir, WithFormat(FormatColumnar))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range csvLake.Tables() {
		for _, l := range []*Lake{auto, colr} {
			got := l.Table(want.Name())
			if got == nil {
				t.Fatalf("table %q missing from packed lake", want.Name())
			}
			if !want.Equal(got) {
				t.Fatalf("table %q differs between CSV and columnar backends", want.Name())
			}
		}
	}
	// The columnar tables carry persisted stats — the proof auto picked
	// the packed file over the CSV.
	at := auto.Tables()[0]
	if at.ColumnAt(0).Stats() == nil {
		t.Fatal("auto-opened table has no persisted stats: CSV was preferred over the packed file")
	}
}

func TestOpenFormatErrors(t *testing.T) {
	dir, _ := writeLakeDir(t)
	if _, err := Open(dir, WithFormat(Format("parquet"))); err == nil {
		t.Error("unknown format must be rejected")
	}
	if _, err := Open(dir, WithFormat(FormatColumnar)); err == nil {
		t.Error("columnar open of an unpacked lake must fail (no .afc files)")
	}
	if _, err := Pack(t.TempDir()); err == nil {
		t.Error("packing an empty dir must fail")
	}
}

func TestPackedLakeSkipsResketching(t *testing.T) {
	dir, _ := writeLakeDir(t)
	if _, err := Pack(dir); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, WithFormat(FormatColumnar), WithMatcher(MatcherSketched))
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range l.Tables() {
		for ci := 0; ci < tb.NumCols(); ci++ {
			st := tb.ColumnAt(ci).Stats()
			if st == nil || st.Sketch == nil {
				t.Fatalf("column %s.%s has no persisted sketch", tb.Name(), tb.ColumnAt(ci).Name())
			}
		}
	}
	// A sketched DRG build runs entirely from the persisted signatures.
	if _, err := l.DRG(); err != nil {
		t.Fatal(err)
	}
}

func TestLakePathsShadowing(t *testing.T) {
	dir := t.TempDir()
	f := frame.New("tbl")
	f.AddColumn(frame.NewIntColumn("k", []int64{1, 2, 3}, nil))
	if err := f.WriteCSVFile(filepath.Join(dir, "tbl.csv")); err != nil {
		t.Fatal(err)
	}
	// A second table exists only as CSV.
	g := frame.New("other")
	g.AddColumn(frame.NewIntColumn("k", []int64{9}, nil))
	if err := g.WriteCSVFile(filepath.Join(dir, "other.csv")); err != nil {
		t.Fatal(err)
	}
	if err := frame.WriteColumnarFile(f, filepath.Join(dir, "tbl"+frame.FormatExt)); err != nil {
		t.Fatal(err)
	}
	paths, err := lakePaths(dir, FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		filepath.Join(dir, "other.csv"),
		filepath.Join(dir, "tbl"+frame.FormatExt),
	}
	if len(paths) != 2 || paths[0] != want[0] || paths[1] != want[1] {
		t.Fatalf("lakePaths = %v, want %v", paths, want)
	}
}

// TestPackedLakeIgnoresFooterCounts packs a lake, rewrites every .afc
// footer to claim "distinct":0 for each column, and requires the same
// DRG as the CSV twin: the matcher must read distinct counts from the
// cells, so a lying upload cannot drop or add join candidates.
func TestPackedLakeIgnoresFooterCounts(t *testing.T) {
	dir, _ := writeLakeDir(t)
	if _, err := Pack(dir); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"+frame.FormatExt))
	if err != nil || len(files) == 0 {
		t.Fatalf("no packed tables: %v", err)
	}
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, zeroFooterDistinct(t, b), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	csv, err := Open(dir, WithFormat(FormatCSV))
	if err != nil {
		t.Fatal(err)
	}
	packed, err := Open(dir, WithFormat(FormatColumnar))
	if err != nil {
		t.Fatal(err)
	}
	want, err := csv.DRG()
	if err != nil {
		t.Fatal(err)
	}
	got, err := packed.DRG()
	if err != nil {
		t.Fatal(err)
	}
	if want.NumEdges() == 0 {
		t.Fatal("fixture lake has no DRG edges")
	}
	if got.DOT() != want.DOT() {
		t.Fatalf("packed lake with lying footers builds a different DRG:\n%s\nvs CSV:\n%s", got.DOT(), want.DOT())
	}
}

// zeroFooterDistinct rewrites the JSON footer of the columnar file b so
// every column claims "distinct":0, keeping every block as it is.
func zeroFooterDistinct(t *testing.T, b []byte) []byte {
	t.Helper()
	trailer := 4 + 1 + len(frame.FormatMagic)
	flen := int(binary.LittleEndian.Uint32(b[len(b)-trailer:]))
	fstart := len(b) - trailer - flen
	var footer map[string]any
	if err := json.Unmarshal(b[fstart:fstart+flen], &footer); err != nil {
		t.Fatal(err)
	}
	for _, c := range footer["columns"].([]any) {
		c.(map[string]any)["distinct"] = 0
	}
	fb, err := json.Marshal(footer)
	if err != nil {
		t.Fatal(err)
	}
	out := append(append([]byte{}, b[:fstart]...), fb...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(fb)))
	out = append(out, frame.FormatVersion)
	return append(out, frame.FormatMagic...)
}
