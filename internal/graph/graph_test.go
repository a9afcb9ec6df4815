package graph

import (
	"strings"
	"testing"

	"autofeat/internal/frame"
)

// chainGraph builds base -- t1 -- t2 with one extra parallel edge between
// base and t1 (multigraph) and returns it.
func chainGraph(t *testing.T) *Graph {
	t.Helper()
	g := New()
	base := frame.New("base")
	addCol(t, base, frame.NewIntColumn("id", []int64{1, 2}, nil))
	addCol(t, base, frame.NewIntColumn("zip", []int64{10, 20}, nil))
	t1 := frame.New("t1")
	addCol(t, t1, frame.NewIntColumn("pid", []int64{1, 2}, nil))
	addCol(t, t1, frame.NewIntColumn("area", []int64{10, 20}, nil))
	addCol(t, t1, frame.NewIntColumn("ref", []int64{5, 6}, nil))
	t2 := frame.New("t2")
	addCol(t, t2, frame.NewIntColumn("key", []int64{5, 6}, nil))
	g.AddTable(base)
	g.AddTable(t1)
	g.AddTable(t2)
	mustEdge(t, g, Edge{A: "base", B: "t1", ColA: "id", ColB: "pid", Weight: 1, KFK: true})
	mustEdge(t, g, Edge{A: "base", B: "t1", ColA: "zip", ColB: "area", Weight: 0.7})
	mustEdge(t, g, Edge{A: "t1", B: "t2", ColA: "ref", ColB: "key", Weight: 1, KFK: true})
	return g
}

func addCol(t *testing.T, f *frame.Frame, c *frame.Column) {
	t.Helper()
	if err := f.AddColumn(c); err != nil {
		t.Fatal(err)
	}
}

func mustEdge(t *testing.T, g *Graph, e Edge) {
	t.Helper()
	if err := g.AddEdge(e); err != nil {
		t.Fatal(err)
	}
}

func TestGraphBasics(t *testing.T) {
	g := chainGraph(t)
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("graph shape %d/%d, want 3/3", g.NumNodes(), g.NumEdges())
	}
	if !g.HasNode("base") || g.HasNode("ghost") {
		t.Fatal("HasNode broken")
	}
	if g.Table("t1") == nil {
		t.Fatal("Table lookup broken")
	}
	nodes := g.Nodes()
	if len(nodes) != 3 || nodes[0] != "base" {
		t.Fatalf("Nodes = %v", nodes)
	}
	if n := len(g.EdgesFrom("base")); n != 2 {
		t.Fatalf("EdgesFrom(base) has %d edges, want 2 (parallel edges count)", n)
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := chainGraph(t)
	cases := []Edge{
		{A: "base", B: "base", ColA: "id", ColB: "id", Weight: 1},   // self loop
		{A: "base", B: "t1", ColA: "id", ColB: "pid", Weight: 0},    // zero weight
		{A: "ghost", B: "t1", ColA: "id", ColB: "pid", Weight: 1},   // unknown A
		{A: "base", B: "ghost", ColA: "id", ColB: "pid", Weight: 1}, // unknown B
		{A: "base", B: "t1", ColA: "nope", ColB: "pid", Weight: 1},  // missing colA
		{A: "base", B: "t1", ColA: "id", ColB: "nope", Weight: 1},   // missing colB
	}
	for i, e := range cases {
		if err := g.AddEdge(e); err == nil {
			t.Errorf("case %d (%v) must fail", i, e)
		}
	}
}

func TestEdgesBetweenMultigraph(t *testing.T) {
	g := chainGraph(t)
	es := g.EdgesBetween("base", "t1")
	if len(es) != 2 {
		t.Fatalf("parallel edges = %d, want 2", len(es))
	}
	for _, e := range es {
		if e.A != "base" {
			t.Fatal("edges must be oriented from the query node")
		}
	}
	// From the other side too.
	es2 := g.EdgesBetween("t1", "base")
	if len(es2) != 2 || es2[0].A != "t1" {
		t.Fatalf("reverse orientation broken: %v", es2)
	}
}

func TestEdgeOrientedAndOther(t *testing.T) {
	e := Edge{A: "x", B: "y", ColA: "a", ColB: "b", Weight: 0.5}
	r := e.Oriented("y")
	if r.A != "y" || r.ColA != "b" || r.B != "x" || r.ColB != "a" {
		t.Fatalf("Oriented flip wrong: %+v", r)
	}
	if e.Oriented("x") != e {
		t.Fatal("Oriented no-op wrong")
	}
	if e.Other("x") != "y" || e.Other("y") != "x" {
		t.Fatal("Other broken")
	}
	if !strings.Contains(e.String(), "x.a -> y.b") {
		t.Fatalf("String: %s", e.String())
	}
}

func TestNeighborsDistinct(t *testing.T) {
	g := chainGraph(t)
	nb := g.Neighbors("base")
	if len(nb) != 1 || nb[0] != "t1" {
		t.Fatalf("Neighbors(base) = %v, want [t1] (parallel edges dedup)", nb)
	}
	nb1 := g.Neighbors("t1")
	if len(nb1) != 2 {
		t.Fatalf("Neighbors(t1) = %v", nb1)
	}
}

func TestBFSLevels(t *testing.T) {
	g := chainGraph(t)
	levels := g.BFSLevels("base")
	if len(levels) != 3 {
		t.Fatalf("levels = %v", levels)
	}
	if levels[0][0] != "base" || levels[1][0] != "t1" || levels[2][0] != "t2" {
		t.Fatalf("level order wrong: %v", levels)
	}
	if g.BFSLevels("ghost") != nil {
		t.Fatal("unknown start gives nil")
	}
}

func TestDFSOrder(t *testing.T) {
	g := chainGraph(t)
	order := g.DFSOrder("base")
	if len(order) != 3 || order[0] != "base" {
		t.Fatalf("DFS = %v", order)
	}
	if g.DFSOrder("ghost") != nil {
		t.Fatal("unknown start gives nil")
	}
}

func TestDOT(t *testing.T) {
	g := chainGraph(t)
	dot := g.DOT()
	if !strings.Contains(dot, `"base" -- "t1"`) {
		t.Fatalf("DOT missing edge:\n%s", dot)
	}
	if !strings.Contains(dot, "style=bold") {
		t.Fatal("KFK edges must be bold")
	}
	// Each undirected edge rendered once: count " -- " occurrences.
	if n := strings.Count(dot, " -- "); n != 3 {
		t.Fatalf("DOT edge count = %d, want 3", n)
	}
}

func TestAddTableReplaceKeepsEdges(t *testing.T) {
	g := chainGraph(t)
	base2 := frame.New("base")
	addCol(t, base2, frame.NewIntColumn("id", []int64{9}, nil))
	addCol(t, base2, frame.NewIntColumn("zip", []int64{9}, nil))
	g.AddTable(base2)
	if g.NumEdges() != 3 {
		t.Fatal("replacing a table must keep edges")
	}
	if g.Table("base").NumRows() != 1 {
		t.Fatal("table must be replaced")
	}
}
