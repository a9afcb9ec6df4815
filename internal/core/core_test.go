package core

import (
	"math/rand"
	"strings"
	"testing"

	"autofeat/internal/frame"
	"autofeat/internal/fselect"
	"autofeat/internal/graph"
	"autofeat/internal/ml"
	"autofeat/internal/telemetry"
)

// testLake builds a small lake where the predictive feature lives two hops
// from the base table:
//
//	base(id, noise, y) --id/pid--> bridge(pid, ref) --ref/key--> gold(key, signal)
//	base --id/junk_id--> junk(junk_id half-overlapping, random values)
//
// signal determines y, so AutoFeat must walk the 2-hop path to win.
func testLake(t *testing.T, n int) *graph.Graph {
	t.Helper()
	return testLakeLabels(t, n, 0, 1)
}

// testLakeLabels is testLake with the label column holding neg for class
// 0 and pos for class 1; every other value is the same.
func testLakeLabels(t *testing.T, n int, neg, pos int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	ids := make([]int64, n)
	noise := make([]float64, n)
	y := make([]int64, n)
	pid := make([]int64, n)
	ref := make([]int64, n)
	key := make([]int64, n)
	signal := make([]float64, n)
	for i := 0; i < n; i++ {
		ids[i] = int64(i)
		noise[i] = rng.NormFloat64()
		y[i] = int64(i % 2)
		pid[i] = int64(i)
		ref[i] = int64(i + 1000)
		key[i] = int64(i + 1000)
		signal[i] = float64(y[i])*3 + rng.NormFloat64()*0.5
	}
	labels := make([]int64, n)
	for i, c := range y {
		labels[i] = neg
		if c == 1 {
			labels[i] = pos
		}
	}
	base := frame.New("base")
	addCol(t, base, frame.NewIntColumn("id", ids, nil))
	addCol(t, base, frame.NewFloatColumn("noise", noise, nil))
	addCol(t, base, frame.NewIntColumn("y", labels, nil))

	bridge := frame.New("bridge")
	addCol(t, bridge, frame.NewIntColumn("pid", pid, nil))
	addCol(t, bridge, frame.NewIntColumn("ref", ref, nil))

	gold := frame.New("gold")
	addCol(t, gold, frame.NewIntColumn("key", key, nil))
	addCol(t, gold, frame.NewFloatColumn("signal", signal, nil))

	// junk joins on only 10% of base ids -> completeness ~0.1 < τ.
	junkIDs := make([]int64, n/10)
	junkVals := make([]float64, n/10)
	for i := range junkIDs {
		junkIDs[i] = int64(i)
		junkVals[i] = rng.NormFloat64()
	}
	junk := frame.New("junk")
	addCol(t, junk, frame.NewIntColumn("junk_id", junkIDs, nil))
	addCol(t, junk, frame.NewFloatColumn("junk_val", junkVals, nil))

	g := graph.New()
	for _, f := range []*frame.Frame{base, bridge, gold, junk} {
		g.AddTable(f)
	}
	mustEdge(t, g, graph.Edge{A: "base", B: "bridge", ColA: "id", ColB: "pid", Weight: 1, KFK: true})
	mustEdge(t, g, graph.Edge{A: "bridge", B: "gold", ColA: "ref", ColB: "key", Weight: 1, KFK: true})
	mustEdge(t, g, graph.Edge{A: "base", B: "junk", ColA: "id", ColB: "junk_id", Weight: 0.6})
	return g
}

func addCol(t *testing.T, f *frame.Frame, c *frame.Column) {
	t.Helper()
	if err := f.AddColumn(c); err != nil {
		t.Fatal(err)
	}
}

func mustEdge(t *testing.T, g *graph.Graph, e graph.Edge) {
	t.Helper()
	if err := g.AddEdge(e); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	g := testLake(t, 100)
	if _, err := New(g, "ghost", "y", DefaultConfig()); err == nil {
		t.Fatal("unknown base must fail")
	}
	if _, err := New(g, "base", "ghost", DefaultConfig()); err == nil {
		t.Fatal("unknown label must fail")
	}
	bad := DefaultConfig()
	bad.Tau = 2
	if _, err := New(g, "base", "y", bad); err == nil {
		t.Fatal("tau out of range must fail")
	}
	bad = DefaultConfig()
	bad.Kappa = 0
	if _, err := New(g, "base", "y", bad); err == nil {
		t.Fatal("kappa < 1 must fail")
	}
	bad = DefaultConfig()
	bad.TopK = 0
	if _, err := New(g, "base", "y", bad); err == nil {
		t.Fatal("topK < 1 must fail")
	}
	bad = DefaultConfig()
	bad.MaxDepth = 0
	if _, err := New(g, "base", "y", bad); err == nil {
		t.Fatal("maxDepth < 1 must fail")
	}
}

func TestRunFindsTransitivePath(t *testing.T) {
	g := testLake(t, 500)
	d, err := New(g, "base", "y", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Paths) == 0 {
		t.Fatal("no paths found")
	}
	best := r.Paths[0]
	if len(best.Edges) != 2 {
		t.Fatalf("best path must be 2 hops (via bridge to gold), got %v", best)
	}
	if best.Edges[1].B != "gold" {
		t.Fatalf("best path must end at gold: %v", best)
	}
	foundSignal := false
	for _, f := range best.Features {
		if f == "gold.signal" {
			foundSignal = true
		}
	}
	if !foundSignal {
		t.Fatalf("gold.signal must be selected: %v", best.Features)
	}
	if best.Score <= 0 {
		t.Fatalf("best score must be positive: %v", best.Score)
	}
	if r.SelectionTime <= 0 {
		t.Fatal("selection time must be recorded")
	}
}

func TestRunPrunesLowQualityJoin(t *testing.T) {
	g := testLake(t, 500)
	d, _ := New(g, "base", "y", DefaultConfig())
	r, _ := d.Run()
	for _, p := range r.Paths {
		for _, e := range p.Edges {
			if e.B == "junk" {
				t.Fatalf("junk (10%% overlap) must be pruned by τ=0.65: %v", p)
			}
		}
	}
	if r.Prune.Discarded() == 0 {
		t.Fatal("the junk join must be counted as pruned")
	}
	if r.PathsExplored <= len(r.Paths) {
		t.Fatal("explored must exceed surviving paths")
	}
}

func TestRunTauZeroKeepsJunk(t *testing.T) {
	g := testLake(t, 500)
	cfg := DefaultConfig()
	cfg.Tau = 0.05
	d, _ := New(g, "base", "y", cfg)
	r, _ := d.Run()
	foundJunk := false
	for _, p := range r.Paths {
		for _, e := range p.Edges {
			if e.B == "junk" {
				foundJunk = true
			}
		}
	}
	if !foundJunk {
		t.Fatal("with τ=0.05 the junk path must survive")
	}
}

func TestRunMaxDepthOne(t *testing.T) {
	g := testLake(t, 300)
	cfg := DefaultConfig()
	cfg.MaxDepth = 1
	d, _ := New(g, "base", "y", cfg)
	r, _ := d.Run()
	for _, p := range r.Paths {
		if len(p.Edges) > 1 {
			t.Fatalf("maxDepth=1 must only yield single-hop paths: %v", p)
		}
	}
}

func TestRunMaxEvalJoinsCap(t *testing.T) {
	g := testLake(t, 300)
	cfg := DefaultConfig()
	cfg.MaxEvalJoins = 1
	d, _ := New(g, "base", "y", cfg)
	r, _ := d.Run()
	if r.PathsExplored > 1 {
		t.Fatalf("MaxEvalJoins=1 must stop after one join, explored %d", r.PathsExplored)
	}
	if !r.Partial || r.PartialReason != "max_eval_joins" {
		t.Fatalf("a run the cap stopped must be partial/max_eval_joins, got Partial=%v reason=%q", r.Partial, r.PartialReason)
	}
}

// TestDefaultJoinBudget pins the one search budget every entry point
// inherits: DefaultConfig caps the BFS at 3000 evaluated joins.
func TestDefaultJoinBudget(t *testing.T) {
	if got := DefaultConfig().MaxEvalJoins; got != 3000 {
		t.Fatalf("DefaultConfig().MaxEvalJoins = %d, want 3000", got)
	}
}

func TestRunDeterminism(t *testing.T) {
	g := testLake(t, 300)
	d1, _ := New(g, "base", "y", DefaultConfig())
	d2, _ := New(g, "base", "y", DefaultConfig())
	r1, _ := d1.Run()
	r2, _ := d2.Run()
	if len(r1.Paths) != len(r2.Paths) {
		t.Fatal("same seed must give same path count")
	}
	for i := range r1.Paths {
		if r1.Paths[i].Score != r2.Paths[i].Score || r1.Paths[i].String() != r2.Paths[i].String() {
			t.Fatalf("path %d differs between runs", i)
		}
	}
}

func TestSimilarityPruningKeepsTopEdge(t *testing.T) {
	g := testLake(t, 200)
	// Add a second, weaker parallel edge base->bridge.
	mustEdge(t, g, graph.Edge{A: "base", B: "bridge", ColA: "noise", ColB: "pid", Weight: 0.3})
	d, _ := New(g, "base", "y", DefaultConfig())
	edges, pruned := d.candidateEdges("base", "bridge")
	if len(edges) != 1 || edges[0].Weight != 1 {
		t.Fatalf("similarity pruning must keep only the weight-1 edge: %v", edges)
	}
	if pruned != 1 {
		t.Fatalf("one parallel edge must be counted as similarity-pruned, got %d", pruned)
	}
	cfg := DefaultConfig()
	cfg.SimilarityPruning = false
	d2, _ := New(g, "base", "y", cfg)
	if got, p := d2.candidateEdges("base", "bridge"); len(got) != 2 || p != 0 {
		t.Fatalf("without pruning both edges survive: %v (pruned %d)", got, p)
	}
}

func TestSimilarityPruningTieKeepsBoth(t *testing.T) {
	g := testLake(t, 200)
	mustEdge(t, g, graph.Edge{A: "base", B: "bridge", ColA: "id", ColB: "ref", Weight: 1})
	d, _ := New(g, "base", "y", DefaultConfig())
	if got, p := d.candidateEdges("base", "bridge"); len(got) != 2 || p != 0 {
		t.Fatalf("equal top scores are individual paths: %v (pruned %d)", got, p)
	}
}

func TestAugmentImprovesOverBase(t *testing.T) {
	g := testLake(t, 600)
	d, _ := New(g, "base", "y", DefaultConfig())
	factory, _ := ml.FactoryByName("lightgbm")
	res, err := d.Augment(factory)
	if err != nil {
		t.Fatal(err)
	}
	// Base-only evaluation is always candidate 0.
	baseAcc := res.Evaluated[0].Eval.Accuracy
	if res.Best.Eval.Accuracy < baseAcc {
		t.Fatalf("best (%v) must be >= base (%v)", res.Best.Eval.Accuracy, baseAcc)
	}
	if res.Best.Eval.Accuracy < 0.85 {
		t.Fatalf("augmented accuracy %.3f too low; gold.signal should be decisive", res.Best.Eval.Accuracy)
	}
	if baseAcc > 0.7 {
		t.Fatalf("base (noise only) accuracy %.3f suspiciously high", baseAcc)
	}
	if len(res.Best.Path.Edges) != 2 {
		t.Fatalf("winning path must be the 2-hop one: %v", res.Best.Path)
	}
	if !res.Table.HasColumn("gold.signal") {
		t.Fatal("augmented table must contain the transitive feature")
	}
	has := false
	for _, f := range res.Features {
		if f == "gold.signal" {
			has = true
		}
	}
	if !has {
		t.Fatalf("trained features must include gold.signal: %v", res.Features)
	}
	if res.TotalTime < res.SelectionTime {
		t.Fatal("total time must include selection time")
	}
}

func TestAugmentRowCountPreserved(t *testing.T) {
	g := testLake(t, 400)
	d, _ := New(g, "base", "y", DefaultConfig())
	factory, _ := ml.FactoryByName("randomforest")
	res, err := d.Augment(factory)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 400 {
		t.Fatalf("augmented table has %d rows, want 400 (left joins preserve)", res.Table.NumRows())
	}
	dist, _ := res.Table.ClassDistribution("base.y")
	if dist[0] != 200 || dist[1] != 200 {
		t.Fatalf("label distribution changed: %v", dist)
	}
}

func TestAblationConfigurations(t *testing.T) {
	g := testLake(t, 300)
	variants := []Config{
		DefaultConfig(), // spearman + mrmr
		func() Config {
			c := DefaultConfig()
			c.Relevance = fselect.PearsonRelevance{}
			c.Redundancy = fselect.NewJMI()
			return c
		}(),
		func() Config {
			c := DefaultConfig()
			c.Redundancy = nil // relevance-only
			return c
		}(),
		func() Config {
			c := DefaultConfig()
			c.Relevance = nil // redundancy-only
			return c
		}(),
	}
	for i, cfg := range variants {
		d, err := New(g, "base", "y", cfg)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		r, err := d.Run()
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if len(r.Paths) == 0 {
			t.Fatalf("variant %d found no paths", i)
		}
	}
}

func TestComputeScore(t *testing.T) {
	if got := computeScore(nil, nil); got != 0 {
		t.Fatalf("empty scores -> 0, got %v", got)
	}
	if got := computeScore([]float64{0.8, 0.6}, nil); got != 0.35 {
		t.Fatalf("rel-only score = %v, want 0.35", got)
	}
	if got := computeScore([]float64{1}, []float64{0.5}); got != 0.75 {
		t.Fatalf("combined score = %v, want 0.75", got)
	}
}

func TestRankedPathString(t *testing.T) {
	p := RankedPath{Score: 0.5}
	if !strings.Contains(p.String(), "base only") {
		t.Fatal("empty path rendering")
	}
	p2 := RankedPath{
		Edges: []graph.Edge{{A: "a", ColA: "x", B: "b", ColB: "y"}},
		Score: 0.7, Features: []string{"b.f"},
	}
	s := p2.String()
	if !strings.Contains(s, "a.x -> b.y") || !strings.Contains(s, "1 features") {
		t.Fatalf("path rendering: %s", s)
	}
	if tabs := p2.Tables(); len(tabs) != 1 || tabs[0] != "b" {
		t.Fatalf("Tables = %v", tabs)
	}
}

func TestTopK(t *testing.T) {
	r := &Ranking{Paths: []RankedPath{{Score: 3}, {Score: 2}, {Score: 1}}}
	if got := r.TopK(2); len(got) != 2 || got[0].Score != 3 {
		t.Fatalf("TopK(2) = %v", got)
	}
	if got := r.TopK(10); len(got) != 3 {
		t.Fatalf("TopK beyond length clamps: %v", got)
	}
	if got := r.TopK(-1); len(got) != 0 {
		t.Fatalf("TopK(-1) must clamp to empty, got %v", got)
	}
	if got := r.TopK(0); len(got) != 0 {
		t.Fatalf("TopK(0) = %v, want empty", got)
	}
}

func TestExpandNeverJoinsOnLabel(t *testing.T) {
	g := testLake(t, 200)
	// Add an edge that would join base on its LABEL column.
	mustEdge(t, g, graph.Edge{A: "base", B: "gold", ColA: "y", ColB: "key", Weight: 0.9})
	d, _ := New(g, "base", "y", DefaultConfig())
	r, _ := d.Run()
	for _, p := range r.Paths {
		for _, e := range p.Edges {
			if e.A == "base" && e.ColA == "y" {
				t.Fatalf("label column used as join key: %v", p)
			}
		}
	}
}

func TestPerPathRedundancyIsolation(t *testing.T) {
	// Two branches from the base carry the SAME signal: branchA holds the
	// original, branchB a monotone copy. With per-path R_sel each branch
	// must keep its own feature; a global R_sel would reject whichever is
	// visited second.
	n := 400
	rng := rand.New(rand.NewSource(77))
	ids := make([]int64, n)
	y := make([]int64, n)
	sig := make([]float64, n)
	cpy := make([]float64, n)
	for i := 0; i < n; i++ {
		ids[i] = int64(i)
		y[i] = int64(i % 2)
		sig[i] = float64(y[i])*3 + rng.NormFloat64()*0.5
		cpy[i] = sig[i]*2 + 1
	}
	base := frame.New("base")
	addCol(t, base, frame.NewIntColumn("id", ids, nil))
	addCol(t, base, frame.NewIntColumn("y", y, nil))
	branchA := frame.New("brancha")
	addCol(t, branchA, frame.NewIntColumn("ka", ids, nil))
	addCol(t, branchA, frame.NewFloatColumn("sig", sig, nil))
	branchB := frame.New("branchb")
	addCol(t, branchB, frame.NewIntColumn("kb", ids, nil))
	addCol(t, branchB, frame.NewFloatColumn("sigcopy", cpy, nil))
	g := graph.New()
	g.AddTable(base)
	g.AddTable(branchA)
	g.AddTable(branchB)
	mustEdge(t, g, graph.Edge{A: "base", B: "brancha", ColA: "id", ColB: "ka", Weight: 1, KFK: true})
	mustEdge(t, g, graph.Edge{A: "base", B: "branchb", ColA: "id", ColB: "kb", Weight: 1, KFK: true})
	cfg := DefaultConfig()
	cfg.MaxDepth = 1
	d, _ := New(g, "base", "y", cfg)
	r, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	kept := map[string]bool{}
	for _, p := range r.Paths {
		for _, f := range p.Features {
			kept[f] = true
		}
	}
	if !kept["brancha.sig"] || !kept["branchb.sigcopy"] {
		t.Fatalf("each branch must keep its own copy of the signal: %v", kept)
	}
}

func TestBeamWidthLimitsFrontier(t *testing.T) {
	g := testLake(t, 300)
	// Widen the lake: several parallel two-level branches off the base,
	// so exhaustive BFS pays for exploring each one at depth 2.
	for i := 0; i < 4; i++ {
		name := "extra" + string(rune('a'+i))
		tab := frame.New(name)
		leaf := frame.New(name + "leaf")
		ids := make([]int64, 300)
		vals := make([]float64, 300)
		for j := range ids {
			ids[j] = int64(j)
			vals[j] = float64(j % 7)
		}
		addCol(t, tab, frame.NewIntColumn("k", ids, nil))
		addCol(t, tab, frame.NewIntColumn("leafref", ids, nil))
		addCol(t, leaf, frame.NewIntColumn("lk", ids, nil))
		addCol(t, leaf, frame.NewFloatColumn("v", vals, nil))
		g.AddTable(tab)
		g.AddTable(leaf)
		mustEdge(t, g, graph.Edge{A: "base", B: name, ColA: "id", ColB: "k", Weight: 1, KFK: true})
		mustEdge(t, g, graph.Edge{A: name, B: name + "leaf", ColA: "leafref", ColB: "lk", Weight: 1, KFK: true})
	}
	full := DefaultConfig()
	dFull, _ := New(g, "base", "y", full)
	rFull, _ := dFull.Run()

	beam := DefaultConfig()
	beam.BeamWidth = 1
	dBeam, _ := New(g, "base", "y", beam)
	rBeam, _ := dBeam.Run()

	if rBeam.PathsExplored >= rFull.PathsExplored {
		t.Fatalf("beam must explore fewer joins: %d vs %d", rBeam.PathsExplored, rFull.PathsExplored)
	}
	// The golden 2-hop path must survive beaming (it scores highest).
	if len(rBeam.Paths) == 0 || rBeam.Paths[0].Edges[len(rBeam.Paths[0].Edges)-1].B != "gold" {
		t.Fatalf("beam lost the golden path: %v", rBeam.Paths)
	}
}

func TestPruneStatsBreakdown(t *testing.T) {
	g := testLake(t, 500)
	d, _ := New(g, "base", "y", DefaultConfig())
	r, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Prune.QualityBelowTau == 0 {
		t.Fatalf("junk join must be counted under quality_below_tau: %+v", r.Prune)
	}
	if got, want := r.Prune.Discarded(), r.PathsExplored-len(r.Paths); got != want {
		t.Fatalf("Discarded() = %d, want PathsExplored-len(Paths) = %d (%+v)", got, want, r.Prune)
	}
	if r.Prune.Total() < r.Prune.Discarded() {
		t.Fatalf("Total() must include every reason: %+v", r.Prune)
	}
}

func TestSimilarityPruneCounted(t *testing.T) {
	g := testLake(t, 200)
	// A weaker parallel edge base->bridge is similarity-pruned, never
	// explored, and must be counted as such.
	mustEdge(t, g, graph.Edge{A: "base", B: "bridge", ColA: "noise", ColB: "pid", Weight: 0.3})
	d, _ := New(g, "base", "y", DefaultConfig())
	r, _ := d.Run()
	if r.Prune.Similarity == 0 {
		t.Fatalf("parallel edge must be counted as similarity-pruned: %+v", r.Prune)
	}
	// Similarity prunes are search-space truncation, not discarded paths.
	if got, want := r.Prune.Discarded(), r.PathsExplored-len(r.Paths); got != want {
		t.Fatalf("Discarded() = %d, want %d", got, want)
	}
}

func TestBeamEvictionsCounted(t *testing.T) {
	g := testLake(t, 300)
	cfg := DefaultConfig()
	cfg.BeamWidth = 1
	d, _ := New(g, "base", "y", cfg)
	r, _ := d.Run()
	// Depth 1 expands bridge and (with tau low enough) more; with the
	// default lake only bridge survives depth 1, so force eviction by
	// lowering tau so junk survives too.
	if r.Prune.BeamEvicted == 0 {
		cfg.Tau = 0.05
		d2, _ := New(g, "base", "y", cfg)
		r2, _ := d2.Run()
		if r2.Prune.BeamEvicted == 0 {
			t.Fatalf("beam width 1 must evict surplus states: %+v", r2.Prune)
		}
		r = r2
	}
	// Evicted states keep their ranked paths: eviction must not change
	// the Discarded invariant.
	if got, want := r.Prune.Discarded(), r.PathsExplored-len(r.Paths); got != want {
		t.Fatalf("Discarded() = %d, want %d (%+v)", got, want, r.Prune)
	}
}

func TestMaxEvalJoinsClampAcrossNeighbors(t *testing.T) {
	// Several neighbours off the base: the cap must stop evaluation
	// consistently across all of them, not just exit one edge loop.
	g := testLake(t, 300)
	for i := 0; i < 3; i++ {
		name := "side" + string(rune('a'+i))
		tab := frame.New(name)
		ids := make([]int64, 300)
		vals := make([]float64, 300)
		for j := range ids {
			ids[j] = int64(j)
			vals[j] = float64(j % 5)
		}
		addCol(t, tab, frame.NewIntColumn("k", ids, nil))
		addCol(t, tab, frame.NewFloatColumn("v", vals, nil))
		g.AddTable(tab)
		mustEdge(t, g, graph.Edge{A: "base", B: name, ColA: "id", ColB: "k", Weight: 1, KFK: true})
	}
	for _, cap := range []int{1, 2, 3} {
		cfg := DefaultConfig()
		cfg.MaxEvalJoins = cap
		d, _ := New(g, "base", "y", cfg)
		r, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		if r.PathsExplored > cap {
			t.Fatalf("MaxEvalJoins=%d overshot: explored %d", cap, r.PathsExplored)
		}
		// base has 5 outgoing edges (bridge, junk, sidea..sidec); the cap
		// leaves the rest unevaluated and counted.
		if want := 5 - cap; r.Prune.BudgetExhausted != want {
			t.Fatalf("MaxEvalJoins=%d: BudgetExhausted = %d, want %d", cap, r.Prune.BudgetExhausted, want)
		}
		if got, want := r.Prune.Discarded(), r.PathsExplored-len(r.Paths); got != want {
			t.Fatalf("MaxEvalJoins=%d: Discarded() = %d, want %d", cap, got, want)
		}
	}
}

func TestTelemetryIntegration(t *testing.T) {
	g := testLake(t, 400)
	cfg := DefaultConfig()
	cfg.Workers = 4
	tel := telemetry.New()
	var log telemetry.SpanLog
	tel.ObserveSpans(&log)
	cfg.Telemetry = tel
	d, _ := New(g, "base", "y", cfg)
	r, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	snap := tel.Snapshot()
	spans := log.Spans()

	// One evaluate_join span per evaluated join, nested under its BFS
	// depth span; every left_join nested under an evaluate_join — exact
	// at Workers > 1, because parentage comes from the context.
	byID := map[int]telemetry.SpanRecord{}
	perName := map[string]int{}
	for _, sp := range spans {
		byID[sp.ID] = sp
		perName[sp.Name]++
	}
	joinSpans := 0
	for _, sp := range spans {
		switch sp.Name {
		case telemetry.SpanJoinEval:
			joinSpans++
			if byID[sp.Parent].Name != telemetry.SpanDepth {
				t.Fatalf("evaluate_join must nest under a depth span, got %q", byID[sp.Parent].Name)
			}
		case telemetry.SpanLeftJoin:
			if byID[sp.Parent].Name != telemetry.SpanJoinEval {
				t.Fatalf("left_join must nest under evaluate_join, got %q", byID[sp.Parent].Name)
			}
		}
		if sp.DurUS < 0 {
			t.Fatalf("span %s left open", sp.Name)
		}
	}
	if joinSpans != r.PathsExplored {
		t.Fatalf("want one evaluate_join span per explored path: %d spans, %d explored", joinSpans, r.PathsExplored)
	}

	// Counters mirror the ranking, and the pruning breakdown of
	// discarded-path reasons sums to PathsExplored - len(Paths).
	if got := snap.Counters[telemetry.CtrPathsExplored]; got != int64(r.PathsExplored) {
		t.Fatalf("paths_explored counter = %d, want %d", got, r.PathsExplored)
	}
	if got := snap.Counters[telemetry.CtrPathsKept]; got != int64(len(r.Paths)) {
		t.Fatalf("paths_kept counter = %d, want %d", got, len(r.Paths))
	}
	p := snap.Pruning()
	discarded := p[telemetry.PruneJoinFailed] + p[telemetry.PruneQualityBelowTau]
	if discarded != int64(r.PathsExplored-len(r.Paths)) {
		t.Fatalf("pruning breakdown sum %d != explored-kept %d (%v)", discarded, r.PathsExplored-len(r.Paths), p)
	}

	// The phase breakdown, read from the span histograms, counts every
	// span the log saw, and covers the join and both selection halves.
	phases := snap.Phases()
	if len(phases) != len(perName) {
		t.Fatalf("phases cover %d span names, the log %d: %+v", len(phases), len(perName), phases)
	}
	for _, p := range phases {
		if p.Count != perName[p.Name] {
			t.Fatalf("phase %s count = %d, log has %d", p.Name, p.Count, perName[p.Name])
		}
	}
	for _, name := range []string{telemetry.SpanLeftJoin, telemetry.SpanRelevance, telemetry.SpanRedundancy} {
		if perName[name] == 0 {
			t.Fatalf("no %s spans", name)
		}
	}
	if snap.Gauges[telemetry.GaugeSelectionSeconds] <= 0 {
		t.Fatal("selection_seconds gauge not set")
	}

	// Telemetry must not perturb the algorithm: a disabled run produces
	// the identical ranking.
	d2, _ := New(g, "base", "y", DefaultConfig())
	r2, _ := d2.Run()
	if len(r2.Paths) != len(r.Paths) || r2.PathsExplored != r.PathsExplored {
		t.Fatalf("telemetry changed the run: %d/%d paths, %d/%d explored",
			len(r.Paths), len(r2.Paths), r.PathsExplored, r2.PathsExplored)
	}
	for i := range r.Paths {
		if r.Paths[i].Score != r2.Paths[i].Score {
			t.Fatalf("path %d score differs with telemetry on", i)
		}
	}
}

func TestTelemetryAugmentSpans(t *testing.T) {
	g := testLake(t, 300)
	cfg := DefaultConfig()
	tel := telemetry.New()
	cfg.Telemetry = tel
	d, _ := New(g, "base", "y", cfg)
	factory, _ := ml.FactoryByName("lightgbm")
	res, err := d.Augment(factory)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, p := range tel.Snapshot().Phases() {
		counts[p.Name] = p.Count
	}
	// Base-only candidate plus every evaluated top-k path gets one
	// materialise + one train span, and the winner is materialised once
	// more for the result.
	if want := len(res.Evaluated); counts[telemetry.SpanMaterialize] != want+1 || counts[telemetry.SpanTrainEval] != want {
		t.Fatalf("want %d materialize and %d train spans, got %d/%d",
			want+1, want, counts[telemetry.SpanMaterialize], counts[telemetry.SpanTrainEval])
	}
	if counts[telemetry.SpanRun] != 1 || counts[telemetry.SpanRank] != 1 {
		t.Fatalf("want exactly one run and rank span: %v", counts)
	}
}
