package autofeat

// Failure-injection tests: corrupted inputs, degenerate tables and broken
// graphs must produce errors (or graceful no-op results), never panics.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autofeat/internal/core"
	"autofeat/internal/discovery"
	"autofeat/internal/frame"
	"autofeat/internal/graph"
)

func TestCorruptedCSVFails(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"ragged.csv":   "a,b\n1,2\n3\n",
		"empty.csv":    "",
		"badquote.csv": "a,b\n\"unterminated,2\n",
	}
	for name, content := range cases {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadTableCSV(path); err == nil {
			t.Errorf("%s: corrupted CSV must fail", name)
		}
	}
}

func TestDiscoveryOnDisconnectedBase(t *testing.T) {
	// A base with no edges at all: discovery must succeed with an empty
	// ranking and Augment must fall back to the base table.
	base, err := ReadTable("lonely", strings.NewReader("id,x,y\n1,0.5,0\n2,0.7,1\n3,0.2,0\n4,0.9,1\n5,0.1,0\n6,0.8,1\n7,0.3,0\n8,0.6,1\n"))
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	g.AddTable(base)
	disc, err := core.New(g, "lonely", "y", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := disc.Augment(mustModel(t, "lightgbm"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ranking.Paths) != 0 {
		t.Fatal("no edges means no paths")
	}
	if len(res.Best.Path.Edges) != 0 {
		t.Fatal("best must be the base-only candidate")
	}
}

func TestDiscoverySingleClassLabelFails(t *testing.T) {
	base, _ := ReadTable("t", strings.NewReader("id,x,y\n1,0.5,1\n2,0.7,1\n3,0.2,1\n"))
	g := graph.New()
	g.AddTable(base)
	disc, err := core.New(g, "t", "y", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Single-class data is degenerate: the pipeline must complete
	// gracefully (a trivial always-positive predictor), never panic.
	res, err := disc.Augment(mustModel(t, "lightgbm"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Eval.Accuracy != 1 {
		t.Fatalf("single-class predictor must be trivially perfect, got %v", res.Best.Eval.Accuracy)
	}
}

func TestDiscoveryNonIntegralLabelFails(t *testing.T) {
	base, _ := ReadTable("t", strings.NewReader("id,y\n1,0.25\n2,0.75\n"))
	g := graph.New()
	g.AddTable(base)
	disc, err := core.New(g, "t", "y", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := disc.Run(); err == nil {
		t.Fatal("non-integral labels must fail")
	}
}

func TestAllNullJoinColumnIsPruned(t *testing.T) {
	// The only join column on the right side is entirely null: the join
	// matches nothing and the path must be pruned, not crash.
	base, _ := ReadTable("b", strings.NewReader("id,y\n1,0\n2,1\n3,0\n4,1\n5,0\n6,1\n"))
	right, _ := ReadTable("r", strings.NewReader("k,v\n,1\n,2\n"))
	g := graph.New()
	g.AddTable(base)
	g.AddTable(right)
	if err := g.AddEdge(Edge{A: "b", B: "r", ColA: "id", ColB: "k", Weight: 0.8}); err != nil {
		t.Fatal(err)
	}
	disc, err := core.New(g, "b", "y", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := disc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Paths) != 0 || r.Prune.Discarded() != 1 {
		t.Fatalf("all-null join key must prune: paths=%d pruned=%d", len(r.Paths), r.Prune.Discarded())
	}
}

func TestGraphWithVanishedTable(t *testing.T) {
	// MaterializePath over a ranking whose table was replaced must still
	// work (graph holds tables by name); this guards the registry
	// semantics rather than a crash.
	base, _ := ReadTable("b", strings.NewReader("id,y\n1,0\n2,1\n3,0\n4,1\n"))
	right, _ := ReadTable("r", strings.NewReader("k,v\n1,10\n2,20\n3,30\n4,40\n"))
	g := graph.New()
	g.AddTable(base)
	g.AddTable(right)
	if err := g.AddEdge(Edge{A: "b", B: "r", ColA: "id", ColB: "k", Weight: 1, KFK: true}); err != nil {
		t.Fatal(err)
	}
	disc, err := core.New(g, "b", "y", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ranking, err := disc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(ranking.Paths) == 0 {
		t.Skip("no path survived; nothing to materialise")
	}
	if _, _, err := disc.MaterializePath(ranking.Paths[0], ranking.Base); err != nil {
		t.Fatal(err)
	}
}

func TestImputeAllNullFrame(t *testing.T) {
	f := frame.New("t")
	if err := f.AddColumn(frame.NewFloatColumn("x", []float64{1, 2}, []bool{false, false})); err != nil {
		t.Fatal(err)
	}
	imp := f.Imputed()
	if imp.NullRatio() != 0 {
		t.Fatal("all-null column must still impute (zeros)")
	}
}

func TestDiscoverDRGEmptyAndSingleTable(t *testing.T) {
	g, err := NewLake(nil, WithThreshold(0.55)).DRG()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 0 {
		t.Fatal("empty lake gives empty graph")
	}
	solo, _ := ReadTable("solo", strings.NewReader("a,b\n1,2\n"))
	g2, err := NewLake([]*Table{solo}, WithThreshold(0.55)).DRG()
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != 1 || g2.NumEdges() != 0 {
		t.Fatal("single table gives one node, no edges")
	}
}

func TestBuildDRGDuplicateTableNames(t *testing.T) {
	a, _ := ReadTable("same", strings.NewReader("x,y\n1,2\n"))
	b, _ := ReadTable("same", strings.NewReader("x,y\n3,4\n"))
	g, err := discovery.BuildBenchmarkDRG([]*Table{a, b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Last registration wins; the graph must stay consistent.
	if g.NumNodes() != 1 {
		t.Fatalf("duplicate names collapse to one node, got %d", g.NumNodes())
	}
	if g.Table("same").Column("x").Int(0) != 3 {
		t.Fatal("last table must win")
	}
}
