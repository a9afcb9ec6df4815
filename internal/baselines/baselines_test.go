package baselines

import (
	"math/rand"
	"reflect"
	"testing"

	"autofeat/internal/frame"
	"autofeat/internal/graph"
	"autofeat/internal/ml"
)

// bmLake builds a benchmark-style lake. The predictive feature is one hop
// away in "profile" (same-name key so MAB can reach it) and two hops away
// in "gold" via "bridge".
func bmLake(t *testing.T, n int) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	ids := make([]int64, n)
	y := make([]int64, n)
	noise := make([]float64, n)
	weak := make([]float64, n)
	strong := make([]float64, n)
	ref := make([]int64, n)
	key := make([]int64, n)
	gsig := make([]float64, n)
	for i := 0; i < n; i++ {
		ids[i] = int64(i)
		y[i] = int64(i % 2)
		noise[i] = rng.NormFloat64()
		weak[i] = float64(y[i])*0.8 + rng.NormFloat64()
		strong[i] = float64(y[i])*2.5 + rng.NormFloat64()*0.6
		ref[i] = int64(i + 5000)
		key[i] = int64(i + 5000)
		gsig[i] = float64(y[i])*3 + rng.NormFloat64()*0.5
	}
	base := frame.New("base")
	addCol(t, base, frame.NewIntColumn("id", ids, nil))
	addCol(t, base, frame.NewFloatColumn("noise", noise, nil))
	addCol(t, base, frame.NewIntColumn("y", y, nil))

	profile := frame.New("profile")
	addCol(t, profile, frame.NewIntColumn("id", ids, nil)) // same name as base.id
	addCol(t, profile, frame.NewFloatColumn("strong", strong, nil))
	addCol(t, profile, frame.NewFloatColumn("weak", weak, nil))

	bridge := frame.New("bridge")
	addCol(t, bridge, frame.NewIntColumn("pid", ids, nil)) // different name: blocks MAB
	addCol(t, bridge, frame.NewIntColumn("ref", ref, nil))

	gold := frame.New("gold")
	addCol(t, gold, frame.NewIntColumn("gkey", key, nil))
	addCol(t, gold, frame.NewFloatColumn("gsig", gsig, nil))

	g := graph.New()
	for _, f := range []*frame.Frame{base, profile, bridge, gold} {
		g.AddTable(f)
	}
	mustEdge(t, g, graph.Edge{A: "base", B: "profile", ColA: "id", ColB: "id", Weight: 1, KFK: true})
	mustEdge(t, g, graph.Edge{A: "base", B: "bridge", ColA: "id", ColB: "pid", Weight: 1, KFK: true})
	mustEdge(t, g, graph.Edge{A: "bridge", B: "gold", ColA: "ref", ColB: "gkey", Weight: 1, KFK: true})
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

func lgbm(t *testing.T) ml.Factory {
	t.Helper()
	f, ok := ml.FactoryByName("lightgbm")
	if !ok {
		t.Fatal("lightgbm factory missing")
	}
	return f
}

func TestBase(t *testing.T) {
	g := bmLake(t, 400)
	res, err := NewBase().Augment(g, "base", "y", lgbm(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.TablesJoined != 0 {
		t.Fatal("BASE joins nothing")
	}
	if res.Method != "base" {
		t.Fatal("method name")
	}
	if res.Eval.Accuracy > 0.7 {
		t.Fatalf("noise-only base accuracy %.3f suspiciously high", res.Eval.Accuracy)
	}
	if res.TotalTime <= 0 {
		t.Fatal("total time must be recorded")
	}
	if _, err := NewBase().Augment(g, "ghost", "y", lgbm(t), 1); err == nil {
		t.Fatal("unknown base must fail")
	}
	if _, err := NewBase().Augment(g, "base", "ghost", lgbm(t), 1); err == nil {
		t.Fatal("unknown label must fail")
	}
}

func TestARDAJoinsOnlyDirectNeighbours(t *testing.T) {
	g := bmLake(t, 400)
	res, err := NewARDA().Augment(g, "base", "y", lgbm(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.TablesJoined != 2 {
		t.Fatalf("ARDA must join the 2 direct neighbours, joined %d", res.TablesJoined)
	}
	if res.Table.HasColumn("gold.gsig") {
		t.Fatal("ARDA is single-hop; gold must be unreachable")
	}
	if res.Eval.Accuracy < 0.8 {
		t.Fatalf("ARDA with profile.strong should beat 0.8, got %.3f", res.Eval.Accuracy)
	}
	if res.SelectionTime <= 0 {
		t.Fatal("RIFS time must be recorded")
	}
	// RIFS must not keep injected noise columns.
	for _, f := range res.Features {
		if len(f) > 6 && f[:6] == "__arda" {
			t.Fatalf("injected random feature leaked: %s", f)
		}
	}
}

func TestMABRespectsSameNameRestriction(t *testing.T) {
	g := bmLake(t, 400)
	res, err := NewMAB().Augment(g, "base", "y", lgbm(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	// profile shares the join column name "id" -> reachable; bridge/gold
	// have mismatched names -> blocked.
	if res.Table.HasColumn("bridge.ref") || res.Table.HasColumn("gold.gsig") {
		t.Fatal("MAB must not traverse differently-named join columns")
	}
	if !res.Table.HasColumn("profile.strong") {
		t.Fatal("MAB should accept the profitable profile join")
	}
	if res.TablesJoined != 1 {
		t.Fatalf("TablesJoined = %d, want 1", res.TablesJoined)
	}
	if res.Eval.Accuracy < 0.8 {
		t.Fatalf("MAB accuracy %.3f too low after joining profile", res.Eval.Accuracy)
	}
	if res.SelectionTime <= 0 {
		t.Fatal("bandit time must be recorded")
	}
}

func TestMABArmOrderIsStable(t *testing.T) {
	// Four tables in the result, each with one same-name join to a table
	// outside it. UCB1 breaks ties among unpulled arms by position, so
	// the arm order must not depend on map iteration.
	g := graph.New()
	names := []string{"t0", "t1", "t2", "t3", "u0", "u1", "u2", "u3"}
	for _, n := range names {
		f := frame.New(n)
		addCol(t, f, frame.NewIntColumn("k", []int64{1, 2, 3}, nil))
		g.AddTable(f)
	}
	for i := 0; i < 4; i++ {
		mustEdge(t, g, graph.Edge{A: names[i], B: names[i+4], ColA: "k", ColB: "k", Weight: 1})
	}
	inResult := map[string]bool{"t0": true, "t1": true, "t2": true, "t3": true}
	order := func() []string {
		var out []string
		for _, a := range NewMAB().collectArms(g, inResult) {
			out = append(out, a.edge.A+"-"+a.edge.B)
		}
		return out
	}
	want := []string{"t0-u0", "t1-u1", "t2-u2", "t3-u3"}
	for i := 0; i < 50; i++ {
		if got := order(); !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: arm order %v, want %v", i, got, want)
		}
	}
}

func TestJoinAllJoinsEverythingReachable(t *testing.T) {
	g := bmLake(t, 400)
	res, err := NewJoinAll(false).Augment(g, "base", "y", lgbm(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.TablesJoined != 3 {
		t.Fatalf("JoinAll must join all 3 reachable tables, joined %d", res.TablesJoined)
	}
	if !res.Table.HasColumn("gold.gsig") {
		t.Fatal("JoinAll must reach gold transitively")
	}
	if res.Method != "joinall" {
		t.Fatal("name")
	}
	if res.SelectionTime != 0 {
		t.Fatal("JoinAll does no feature selection")
	}
	if res.Eval.Accuracy < 0.85 {
		t.Fatalf("JoinAll accuracy %.3f too low with all signals joined", res.Eval.Accuracy)
	}
}

func TestJoinAllFFiltersFeatures(t *testing.T) {
	g := bmLake(t, 400)
	ja := NewJoinAll(true)
	ja.Kappa = 3
	res, err := ja.Augment(g, "base", "y", lgbm(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "joinall+f" {
		t.Fatal("name")
	}
	if len(res.Features) > 3 {
		t.Fatalf("filter must cap at κ=3 features: %v", res.Features)
	}
	if res.SelectionTime <= 0 {
		t.Fatal("filter time must be recorded")
	}
	// The strongest features must survive the filter.
	found := false
	for _, f := range res.Features {
		if f == "gold.gsig" || f == "profile.strong" {
			found = true
		}
	}
	if !found {
		t.Fatalf("filter dropped all informative features: %v", res.Features)
	}
}

func TestAllAndByName(t *testing.T) {
	all := All()
	if len(all) != 5 {
		t.Fatalf("All() = %d methods, want 5", len(all))
	}
	names := []string{"base", "arda", "mab", "joinall", "joinall+f"}
	for i, m := range all {
		if m.Name() != names[i] {
			t.Errorf("method %d = %q, want %q", i, m.Name(), names[i])
		}
		if ByName(names[i]) == nil {
			t.Errorf("ByName(%q) = nil", names[i])
		}
	}
	if ByName("nope") != nil {
		t.Fatal("unknown name must return nil")
	}
}

func TestModelInLoopIsSlowerThanFilter(t *testing.T) {
	// Sanity check of the efficiency claim's mechanism: ARDA/MAB
	// selection involves model training, JoinAll+F does one cheap filter
	// pass; on the same lake the filter must be faster.
	g := bmLake(t, 400)
	arda, err := NewARDA().Augment(g, "base", "y", lgbm(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	jaf, err := NewJoinAll(true).Augment(g, "base", "y", lgbm(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	if arda.SelectionTime <= jaf.SelectionTime {
		t.Fatalf("ARDA selection (%v) should exceed a single filter pass (%v)",
			arda.SelectionTime, jaf.SelectionTime)
	}
}
