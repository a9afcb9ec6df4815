package autofeat

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autofeat/internal/core"
	"autofeat/internal/datagen"
	"autofeat/internal/discovery"
	"autofeat/internal/frame"
)

// writeLakeCSVs materialises a generated dataset as CSV files in a temp
// dir, exercising the full file-based entry path of the public API.
func writeLakeCSVs(t *testing.T, d *datagen.Dataset) string {
	t.Helper()
	dir := t.TempDir()
	for _, tab := range d.Tables {
		if err := tab.WriteCSVFile(filepath.Join(dir, tab.Name()+".csv")); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// mustModel returns the named model factory or fails the test.
func mustModel(t *testing.T, name string) ModelFactory {
	t.Helper()
	f, err := ModelByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestEndToEndCSVLakeDiscovery(t *testing.T) {
	spec := datagen.SmallSpecs()[0]
	d, err := datagen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	dir := writeLakeCSVs(t, d)

	l, err := OpenLake(dir, WithFormat(FormatCSV))
	if err != nil {
		t.Fatal(err)
	}
	tables := l.Tables()
	if len(tables) != len(d.Tables) {
		t.Fatalf("read %d tables, want %d", len(tables), len(d.Tables))
	}

	// Data lake path: discover relationships, then AutoFeat end to end.
	g, err := NewLake(tables, WithThreshold(0.55)).DRG()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() == 0 {
		t.Fatal("discovery must find edges in the lake")
	}
	disc, err := core.New(g, spec.Name, "target", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := disc.Augment(mustModel(t, "lightgbm"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Eval.Accuracy <= 0.5 {
		t.Fatalf("augmented accuracy %.3f not better than chance", res.Best.Eval.Accuracy)
	}
	if res.Table.NumRows() != spec.Rows {
		t.Fatal("left joins must preserve the base row count end to end")
	}
}

func TestEndToEndKFKBenchmark(t *testing.T) {
	spec := datagen.SmallSpecs()[1]
	d, err := datagen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	g, err := discovery.BuildBenchmarkDRG(d.Tables, d.KFKs)
	if err != nil {
		t.Fatal(err)
	}
	disc, err := core.New(g, spec.Name, d.Label, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ranking, err := disc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(ranking.Paths) == 0 {
		t.Fatal("benchmark DRG must yield ranked paths")
	}
	// Discovery is model-independent: evaluate the same ranking with two
	// model families and confirm each returns a usable result.
	for _, name := range []string{"lightgbm", "randomforest"} {
		res, err := disc.EvaluateRanking(ranking, mustModel(t, name))
		if err != nil {
			t.Fatal(err)
		}
		if res.Best.Eval.Accuracy < 0.5 {
			t.Fatalf("%s: accuracy %.3f below chance", name, res.Best.Eval.Accuracy)
		}
	}
}

func TestPublicAPIErrors(t *testing.T) {
	if _, err := OpenLake(t.TempDir(), WithFormat(FormatCSV)); err == nil {
		t.Fatal("empty dir must fail")
	}
	if _, err := OpenLake("/nonexistent-path-xyz", WithFormat(FormatCSV)); err == nil {
		t.Fatal("missing dir must fail")
	}
	if _, err := ModelByName("nope"); !errors.Is(err, ErrBadInput) {
		t.Fatalf("unknown model: err = %v, want ErrBadInput", err)
	}
}

func TestModelsRegistry(t *testing.T) {
	ms := Models()
	if len(ms) != 6 {
		t.Fatalf("6 models, got %d", len(ms))
	}
	for _, m := range ms {
		c := m.New(1)
		if c.Name() != m.Name {
			t.Fatalf("factory %q builds %q", m.Name, c.Name())
		}
	}
}

func TestReadTableFromReader(t *testing.T) {
	tab, err := ReadTable("inline", strings.NewReader("a,b\n1,x\n2,y\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Name() != "inline" || tab.NumRows() != 2 {
		t.Fatal("inline read broken")
	}
}

func TestReadTableCSVFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mytable.csv")
	if err := os.WriteFile(path, []byte("a,b\n1,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tab, err := ReadTableCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Name() != "mytable" {
		t.Fatalf("table name = %q", tab.Name())
	}
}

// TestLeftJoinLabelInvariant is the core correctness property end to end:
// whatever AutoFeat does, the label column of the augmented table is
// bit-identical to the base table's.
func TestLeftJoinLabelInvariant(t *testing.T) {
	spec := datagen.SmallSpecs()[0]
	d, _ := datagen.Generate(spec)
	g, _ := discovery.BuildBenchmarkDRG(d.Tables, d.KFKs)
	disc, _ := core.New(g, spec.Name, d.Label, DefaultConfig())
	res, err := disc.Augment(mustModel(t, "extratrees"))
	if err != nil {
		t.Fatal(err)
	}
	orig := d.Base.Column(d.Label)
	aug := res.Table.Column(spec.Name + "." + d.Label)
	if aug == nil {
		t.Fatal("label column missing from augmented table")
	}
	for i := 0; i < orig.Len(); i++ {
		if orig.Int(i) != aug.Int(i) {
			t.Fatalf("label drifted at row %d", i)
		}
	}
}

// TestStratifiedInvariants drives the sampling machinery through the
// public path with randomised shapes.
func TestStratifiedInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 5; trial++ {
		n := 100 + rng.Intn(400)
		ids := make([]int64, n)
		labels := make([]int64, n)
		for i := range ids {
			ids[i] = int64(i)
			if rng.Float64() < 0.3 {
				labels[i] = 1
			}
		}
		f := frame.New("t")
		if err := f.AddColumn(frame.NewIntColumn("id", ids, nil)); err != nil {
			t.Fatal(err)
		}
		if err := f.AddColumn(frame.NewIntColumn("y", labels, nil)); err != nil {
			t.Fatal(err)
		}
		s, err := f.StratifiedSample("y", n/2, rng)
		if err != nil {
			t.Fatal(err)
		}
		if s.NumRows() == 0 || s.NumRows() > n {
			t.Fatalf("sample size %d out of range", s.NumRows())
		}
	}
}

func TestPublicAutoTune(t *testing.T) {
	spec := datagen.SmallSpecs()[0]
	d, _ := datagen.Generate(spec)
	out, err := NewLake(d.Tables, WithKFKs(d.KFKs)).AutoTune(spec.Name, d.Label, DefaultConfig(), mustModel(t, "lightgbm"),
		[]float64{0.65}, []int{10, 15})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Tried) != 2 || out.Best.Accuracy <= 0.5 {
		t.Fatalf("autotune outcome implausible: %+v", out.Best)
	}
}

func TestPublicSketchedDiscovery(t *testing.T) {
	spec := datagen.SmallSpecs()[0]
	d, _ := datagen.Generate(spec)
	g, err := NewLake(d.Tables, WithMatcher(MatcherSketched), WithThreshold(0.55)).DRG()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() == 0 {
		t.Fatal("sketched discovery must find the KFK relationships")
	}
	exact, _ := NewLake(d.Tables, WithThreshold(0.55)).DRG()
	// The sketched graph should roughly agree with the exact one.
	if g.NumEdges() < exact.NumEdges()/2 || g.NumEdges() > exact.NumEdges()*2 {
		t.Fatalf("sketched edges %d too far from exact %d", g.NumEdges(), exact.NumEdges())
	}
}
