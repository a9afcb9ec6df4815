package datagen

import (
	"testing"

	"autofeat/internal/discovery"
	"autofeat/internal/frame"
)

func gen(t *testing.T, name string) *Dataset {
	t.Helper()
	spec, ok := SpecByName(name)
	if !ok {
		t.Fatalf("unknown spec %q", name)
	}
	d, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPaperSpecsMatchTableII(t *testing.T) {
	specs := PaperSpecs()
	if len(specs) != 8 {
		t.Fatalf("Table II has 8 datasets, got %d", len(specs))
	}
	// Spot-check the unscaled entries against Table II.
	want := map[string][3]int{ // rows, joinable tables, paper features
		"credit":  {1001, 5, 21},
		"eyemove": {7609, 6, 24},
		"steel":   {1943, 15, 34},
		"school":  {1775, 16, 731},
	}
	for _, s := range specs {
		w, ok := want[s.Name]
		if !ok {
			continue
		}
		if s.Rows != w[0] || s.JoinableTables != w[1] || s.PaperFeatures != w[2] {
			t.Errorf("%s: got (%d,%d,%d), want %v", s.Name, s.Rows, s.JoinableTables, s.PaperFeatures, w)
		}
	}
	// Scaled entries keep the paper row count on record.
	cov, _ := SpecByName("covertype")
	if cov.PaperRows != 423682 || cov.Rows >= cov.PaperRows {
		t.Error("covertype must be scaled down with provenance")
	}
}

func TestGenerateShape(t *testing.T) {
	d := gen(t, "credit")
	if len(d.Tables) != d.Spec.JoinableTables+1 {
		t.Fatalf("tables = %d, want %d", len(d.Tables), d.Spec.JoinableTables+1)
	}
	if d.Base.NumRows() != d.Spec.Rows {
		t.Fatalf("rows = %d, want %d", d.Base.NumRows(), d.Spec.Rows)
	}
	if !d.Base.HasColumn("id") || !d.Base.HasColumn("target") {
		t.Fatal("base must have id and target")
	}
	dist, err := d.Base.ClassDistribution("target")
	if err != nil {
		t.Fatal(err)
	}
	n0, n1 := dist[0], dist[1]
	if n0 == 0 || n1 == 0 {
		t.Fatal("both classes must be present")
	}
	ratio := float64(n1) / float64(n0+n1)
	if ratio < 0.4 || ratio > 0.6 {
		t.Fatalf("class balance %v too skewed", ratio)
	}
	// Feature budget: count non-key, non-id, non-target columns.
	features := 0
	for _, tab := range d.Tables {
		for _, c := range tab.Columns() {
			name := c.Name()
			if name == "id" || name == "target" || isKeyLike(name) {
				continue
			}
			features++
		}
	}
	if features != d.Spec.TotalFeatures {
		t.Fatalf("feature budget %d, want %d", features, d.Spec.TotalFeatures)
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a := gen(t, "credit")
	b := gen(t, "credit")
	for i := range a.Tables {
		if !a.Tables[i].Equal(b.Tables[i]) {
			t.Fatalf("table %d differs between runs", i)
		}
	}
}

func TestGenerateKFKsJoinable(t *testing.T) {
	d := gen(t, "credit")
	byName := map[string]*frame.Frame{}
	for _, tab := range d.Tables {
		byName[tab.Name()] = tab
	}
	if len(d.KFKs) != d.Spec.JoinableTables {
		t.Fatalf("KFKs = %d, want %d", len(d.KFKs), d.Spec.JoinableTables)
	}
	for _, k := range d.KFKs {
		p, c := byName[k.ParentTable], byName[k.ChildTable]
		if p == nil || c == nil {
			t.Fatalf("KFK references unknown tables: %+v", k)
		}
		if !p.HasColumn(k.ParentCol) || !c.HasColumn(k.ChildCol) {
			t.Fatalf("KFK references unknown columns: %+v", k)
		}
		// Real joinability: child FK values overlap parent keys.
		overlap := overlapFrac(c.Column(k.ChildCol), p.Column(k.ParentCol))
		if overlap < 0.25 {
			t.Fatalf("KFK %v has overlap %v; keys must be joinable", k, overlap)
		}
	}
}

func overlapFrac(a, b *frame.Column) float64 {
	as, bs := a.ValueSet(), b.ValueSet()
	if len(as) == 0 {
		return 0
	}
	n := 0
	for k := range as {
		if _, ok := bs[k]; ok {
			n++
		}
	}
	return float64(n) / float64(len(as))
}

func TestInformativeFeaturesPlacedDeep(t *testing.T) {
	d := gen(t, "steel")
	deepInformative := 0
	for table, feats := range d.InformativeByTable {
		if d.Depth[table] >= 2 {
			deepInformative += len(feats)
		}
	}
	if deepInformative == 0 {
		t.Fatal("transitive tables must hold informative features — that is the point of the paper")
	}
	// The spurious table must exist and hold no informative features.
	if d.SpuriousTable == "" {
		t.Fatal("every lake needs a spurious table")
	}
	if len(d.InformativeByTable[d.SpuriousTable]) != 0 {
		t.Fatal("spurious table must not hold signal")
	}
}

func TestDepthStructure(t *testing.T) {
	d := gen(t, "steel") // 15 tables -> depths 1..3
	maxDepth := 0
	for _, dep := range d.Depth {
		if dep > maxDepth {
			maxDepth = dep
		}
	}
	if maxDepth < 2 {
		t.Fatalf("15-table lake must chain to depth >= 2, got %d", maxDepth)
	}
	if d.Depth[d.Base.Name()] != 0 {
		t.Fatal("base depth must be 0")
	}
}

func TestBenchmarkDRG(t *testing.T) {
	d := gen(t, "credit")
	g, err := discovery.BuildBenchmarkDRG(d.Tables, d.KFKs)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != len(d.Tables) {
		t.Fatal("every table must be a node")
	}
	if g.NumEdges() != len(d.KFKs) {
		t.Fatalf("benchmark DRG must have exactly the KFK edges: %d vs %d", g.NumEdges(), len(d.KFKs))
	}
	for _, e := range g.EdgesFrom(d.Base.Name()) {
		if !e.KFK || e.Weight != 1 {
			t.Fatal("benchmark edges must be KFK with weight 1")
		}
	}
}

func TestLakeDRGIsDenserMultigraph(t *testing.T) {
	d := gen(t, "credit")
	bench, err := discovery.BuildBenchmarkDRG(d.Tables, d.KFKs)
	if err != nil {
		t.Fatal(err)
	}
	lake, err := discovery.DiscoverDRGQuadratic(d.Tables, 0.55, discovery.NewMatcher())
	if err != nil {
		t.Fatal(err)
	}
	if lake.NumNodes() != bench.NumNodes() {
		t.Fatal("same nodes in both settings")
	}
	if lake.NumEdges() <= bench.NumEdges() {
		t.Fatalf("lake DRG must be denser (spurious edges): %d vs %d", lake.NumEdges(), bench.NumEdges())
	}
	// The true KFK relationships must be rediscovered by instance overlap.
	found := 0
	for _, k := range d.KFKs {
		for _, e := range lake.EdgesBetween(k.ParentTable, k.ChildTable) {
			if (e.ColA == k.ParentCol && e.ColB == k.ChildCol) || (e.ColA == k.ChildCol && e.ColB == k.ParentCol) {
				found++
				break
			}
		}
	}
	if found < len(d.KFKs)*2/3 {
		t.Fatalf("discovery found only %d/%d true relationships", found, len(d.KFKs))
	}
}

func TestFlatTable(t *testing.T) {
	d := gen(t, "credit")
	flat, err := d.FlatTable()
	if err != nil {
		t.Fatal(err)
	}
	if flat.NumRows() != d.Spec.Rows {
		t.Fatal("flat table must align to entities")
	}
	if !flat.HasColumn("target") || !flat.HasColumn("id") {
		t.Fatal("flat table keeps id and target")
	}
	features := 0
	for _, c := range flat.Columns() {
		if c.Name() != "id" && c.Name() != "target" && !isKeyLike(c.Name()) {
			features++
		}
	}
	if features != d.Spec.TotalFeatures {
		t.Fatalf("flat features = %d, want %d", features, d.Spec.TotalFeatures)
	}
	// Coverage gaps become nulls.
	if flat.NullRatio() == 0 {
		t.Fatal("partial coverage must surface as nulls in the flat view")
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Spec{Rows: 5, JoinableTables: 2, TotalFeatures: 10}); err == nil {
		t.Fatal("too few rows must fail")
	}
	if _, err := Generate(Spec{Rows: 100, JoinableTables: 0, TotalFeatures: 10}); err == nil {
		t.Fatal("no joinable tables must fail")
	}
	if _, err := Generate(Spec{Rows: 100, JoinableTables: 8, TotalFeatures: 5}); err == nil {
		t.Fatal("feature budget below tables must fail")
	}
}

func TestSectionVAndSmallSpecs(t *testing.T) {
	if got := len(SectionVSpecs()); got != 6 {
		t.Fatalf("Section V uses 6 datasets, got %d", got)
	}
	for _, s := range SmallSpecs() {
		if _, err := Generate(s); err != nil {
			t.Fatalf("small spec %s: %v", s.Name, err)
		}
	}
	if _, ok := SpecByName("nope"); ok {
		t.Fatal("unknown spec must report !ok")
	}
}

func TestMABCompatibleNaming(t *testing.T) {
	// Even-indexed tables must expose same-named FK/key pairs so the MAB
	// baseline has something to traverse.
	d := gen(t, "credit")
	same := 0
	for _, k := range d.KFKs {
		if k.ParentCol == k.ChildCol {
			same++
		}
	}
	if same == 0 {
		t.Fatal("some KFKs must share column names for MAB compatibility")
	}
	if same == len(d.KFKs) {
		t.Fatal("some KFKs must have differing names to exercise MAB's limitation")
	}
}
