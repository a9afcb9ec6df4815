package discovery

import (
	"testing"
	"testing/quick"

	"autofeat/internal/frame"
)

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "abc", 0},
		{"kitten", "sitting", 3},
		{"a", "", 1},
		{"", "abc", 3},
		{"flaw", "lawn", 2},
	}
	for _, c := range cases {
		if got := levenshtein(c.a, c.b); got != c.want {
			t.Errorf("levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestNameSimilarity(t *testing.T) {
	if NameSimilarity("applicant_id", "ApplicantID") != 1 {
		t.Fatal("normalised identical names must score 1")
	}
	if s := NameSimilarity("credit_score", "creditscore"); s != 1 {
		t.Fatalf("separator-insensitive: got %v", s)
	}
	sim := NameSimilarity("customer_id", "cust_id")
	dis := NameSimilarity("customer_id", "temperature")
	if sim <= dis {
		t.Fatalf("related names must outscore unrelated: %v vs %v", sim, dis)
	}
	if NameSimilarity("", "x") != 0 {
		t.Fatal("empty name scores 0")
	}
	if NameSimilarity("__", "ab") != 0 {
		t.Fatal("name that normalises to empty scores 0")
	}
}

func TestTrigramJaccardShortNames(t *testing.T) {
	if trigramJaccard("ab", "ab") != 1 {
		t.Fatal("short identical names must score 1 via unigram fallback")
	}
	if trigramJaccard("a", "b") != 0 {
		t.Fatal("disjoint unigrams score 0")
	}
}

func intCol(name string, vals ...int64) *frame.Column {
	return frame.NewIntColumn(name, vals, nil)
}

func TestInstanceSimilarityContainment(t *testing.T) {
	m := NewMatcher()
	fk := intCol("fk", 1, 2, 3, 2, 1)
	pk := intCol("pk", 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	if got := m.InstanceSimilarity(fk, pk); got != 1 {
		t.Fatalf("contained FK must score 1, got %v", got)
	}
	dis := intCol("x", 100, 200)
	if got := m.InstanceSimilarity(dis, pk); got != 0 {
		t.Fatalf("disjoint sets must score 0, got %v", got)
	}
	empty := frame.NewIntColumn("e", []int64{1}, []bool{false})
	if m.InstanceSimilarity(empty, pk) != 0 {
		t.Fatal("all-null column scores 0")
	}
}

func TestInstanceSimilaritySampleCap(t *testing.T) {
	m := &Matcher{NameWeight: 0.4, InstanceWeight: 0.6, MaxValues: 5}
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = int64(i)
	}
	big := intCol("big", vals...)
	small := intCol("small", 0, 1, 2, 3, 4)
	if got := m.InstanceSimilarity(small, big); got != 1 {
		t.Fatalf("capped sampling keeps first keys: got %v", got)
	}
}

func TestMatchColumnsKinds(t *testing.T) {
	m := NewMatcher()
	f := frame.NewFloatColumn("score", []float64{1.5, 2.5}, nil)
	i := intCol("score", 1, 2)
	if m.MatchColumns(f, i) != 0 {
		t.Fatal("continuous float columns are not join candidates")
	}
	b := frame.NewBoolColumn("score", []bool{true}, nil)
	if m.MatchColumns(b, b) != 0 {
		t.Fatal("bool columns are not join candidates")
	}
	zero := &Matcher{MaxValues: 10}
	if zero.MatchColumns(i, i) != 0 {
		t.Fatal("zero weights score 0")
	}
}

func TestMatchColumnsBlending(t *testing.T) {
	m := NewMatcher()
	a := intCol("user_id", 1, 2, 3)
	b := intCol("user_id", 1, 2, 3)
	if got := m.MatchColumns(a, b); got != 1 {
		t.Fatalf("identical name + identical values must score 1, got %v", got)
	}
	c := intCol("zzz", 900, 901)
	if got := m.MatchColumns(a, c); got > 0.3 {
		t.Fatalf("unrelated columns must score low, got %v", got)
	}
}

func lakeTables(t *testing.T) []*frame.Frame {
	t.Helper()
	base := frame.New("applicants")
	addCol(t, base, intCol("applicant_id", 1, 2, 3, 4))
	addCol(t, base, intCol("loan_approval", 1, 0, 1, 0))
	prof := frame.New("profile")
	addCol(t, prof, intCol("applicant_id", 1, 2, 3, 4))
	addCol(t, prof, frame.NewFloatColumn("income", []float64{10, 20, 30, 40}, nil))
	noise := frame.New("weather")
	addCol(t, noise, intCol("station", 900, 901))
	addCol(t, noise, frame.NewFloatColumn("temp", []float64{1, 2}, nil))
	return []*frame.Frame{base, prof, noise}
}

func addCol(t *testing.T, f *frame.Frame, c *frame.Column) {
	t.Helper()
	if err := f.AddColumn(c); err != nil {
		t.Fatal(err)
	}
}

func TestBuildBenchmarkDRG(t *testing.T) {
	tabs := lakeTables(t)
	g, err := BuildBenchmarkDRG(tabs, []KFK{{
		ParentTable: "applicants", ParentCol: "applicant_id",
		ChildTable: "profile", ChildCol: "applicant_id",
	}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 1 {
		t.Fatalf("DRG shape %d/%d", g.NumNodes(), g.NumEdges())
	}
	es := g.EdgesBetween("applicants", "profile")
	if len(es) != 1 || !es[0].KFK || es[0].Weight != 1 {
		t.Fatalf("KFK edge wrong: %+v", es)
	}
	// Bad constraint propagates the graph error.
	if _, err := BuildBenchmarkDRG(tabs, []KFK{{ParentTable: "ghost", ParentCol: "x", ChildTable: "profile", ChildCol: "applicant_id"}}); err == nil {
		t.Fatal("bad KFK must fail")
	}
}

func TestDiscoverDRG(t *testing.T) {
	tabs := lakeTables(t)
	g, err := DiscoverDRGQuadratic(tabs, 0.55, NewMatcher())
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 {
		t.Fatal("all tables become nodes")
	}
	if len(g.EdgesBetween("applicants", "profile")) == 0 {
		t.Fatal("discovery must find the applicant_id edge")
	}
	for _, e := range g.EdgesBetween("applicants", "profile") {
		if e.KFK {
			t.Fatal("discovered edges are not KFK")
		}
		if e.Weight < 0.55 || e.Weight > 1 {
			t.Fatalf("weight out of range: %v", e.Weight)
		}
	}
	// Lower threshold yields at least as many edges (denser multigraph).
	g2, _ := DiscoverDRGQuadratic(tabs, 0.3, NewMatcher())
	if g2.NumEdges() < g.NumEdges() {
		t.Fatal("lower threshold must not remove edges")
	}
}

// Property: name similarity is symmetric and in [0,1].
func TestNameSimilarityProperty(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 40 || len(b) > 40 {
			return true
		}
		s1, s2 := NameSimilarity(a, b), NameSimilarity(b, a)
		return s1 == s2 && s1 >= 0 && s1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestJoinCandidateRejectsDegenerateKeys(t *testing.T) {
	m := NewMatcher()
	// A binary label column must never be a join candidate: its value set
	// is contained in any small-int column, which would open a
	// label-leakage channel.
	label := intCol("target", 0, 1, 0, 1, 0, 1)
	bait := intCol("code", 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	if got := m.MatchColumns(label, bait); got != 0 {
		t.Fatalf("binary column matched with score %v; degenerate keys must score 0", got)
	}
	// Ten distinct values is enough to be a candidate.
	if got := m.MatchColumns(bait, bait); got == 0 {
		t.Fatal("ten-distinct categorical should still be a candidate")
	}
}
