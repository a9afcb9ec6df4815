package discovery

import (
	"math"
	"testing"
	"testing/quick"

	"autofeat/internal/frame"
)

func seqCol(name string, from, to int) *frame.Column {
	vals := make([]int64, 0, to-from)
	for v := from; v < to; v++ {
		vals = append(vals, int64(v))
	}
	return frame.NewIntColumn(name, vals, nil)
}

func TestSketchCardinality(t *testing.T) {
	c := frame.NewIntColumn("x", []int64{1, 2, 3, 2, 1}, nil)
	s := Sketch(c, 64)
	if s.Cardinality != 3 {
		t.Fatalf("cardinality = %d, want 3", s.Cardinality)
	}
	nullCol := frame.NewIntColumn("x", []int64{1}, []bool{false})
	if Sketch(nullCol, 64).Cardinality != 0 {
		t.Fatal("all-null column has cardinality 0")
	}
}

func TestSketchJaccardIdentical(t *testing.T) {
	a := seqCol("a", 0, 500)
	b := seqCol("b", 0, 500)
	if j := Sketch(a, 128).Jaccard(Sketch(b, 128)); j != 1 {
		t.Fatalf("identical sets must estimate J=1, got %v", j)
	}
}

func TestSketchJaccardDisjoint(t *testing.T) {
	a := seqCol("a", 0, 500)
	b := seqCol("b", 10000, 10500)
	if j := Sketch(a, 128).Jaccard(Sketch(b, 128)); j > 0.1 {
		t.Fatalf("disjoint sets must estimate J~0, got %v", j)
	}
}

func TestSketchJaccardAccuracy(t *testing.T) {
	// True Jaccard 1/3: |A∩B|=500, |A∪B|=1500.
	a := seqCol("a", 0, 1000)
	b := seqCol("b", 500, 1500)
	j := Sketch(a, 256).Jaccard(Sketch(b, 256))
	if math.Abs(j-1.0/3) > 0.12 {
		t.Fatalf("J estimate %v too far from 1/3", j)
	}
}

func TestSketchContainment(t *testing.T) {
	small := seqCol("fk", 0, 200)
	big := seqCol("pk", 0, 2000)
	c := Sketch(small, 256).Containment(Sketch(big, 256))
	if c < 0.75 {
		t.Fatalf("fully contained set must estimate high containment, got %v", c)
	}
	rev := Sketch(big, 256).Containment(Sketch(small, 256))
	if rev > 0.35 {
		t.Fatalf("reverse containment must be ~0.1, got %v", rev)
	}
	empty := Sketch(frame.NewIntColumn("e", []int64{1}, []bool{false}), 64)
	if empty.Containment(Sketch(big, 64)) != 0 {
		t.Fatal("empty set containment is 0")
	}
}

// Regression: Jaccard used to return 0 whenever sketch sizes differed
// (a lake-default sketch vs a request-override SketchSize), silently
// erasing all instance evidence. Mismatched sizes now compare over the
// common slot prefix, which is itself a valid MinHash signature.
func TestSketchSizeMismatch(t *testing.T) {
	a := Sketch(seqCol("a", 0, 500), 32)
	b := Sketch(seqCol("b", 0, 500), 64)
	if j := a.Jaccard(b); j != 1 {
		t.Fatalf("identical sets at different sketch sizes must estimate J=1 over the common prefix, got %v", j)
	}
	if a.Jaccard(b) != b.Jaccard(a) {
		t.Fatal("prefix comparison must stay symmetric")
	}
	disjoint := Sketch(seqCol("c", 10000, 10500), 64)
	if j := a.Jaccard(disjoint); j > 0.15 {
		t.Fatalf("disjoint sets must stay near 0 across sizes, got %v", j)
	}
	empty := Sketch(frame.NewIntColumn("e", []int64{1}, []bool{false}), 64)
	if a.Jaccard(empty) != 0 {
		t.Fatal("empty set must still score 0")
	}
}

func TestSketchMatcherAgreesWithExact(t *testing.T) {
	exact := NewMatcher()
	sketched := NewSketchMatcher()
	fk := seqCol("user_id", 0, 300)
	pk := seqCol("user_id", 0, 3000)
	se := exact.MatchColumns(fk, pk)
	ss := sketched.MatchColumns(fk, pk)
	if math.Abs(se-ss) > 0.15 {
		t.Fatalf("sketched score %v too far from exact %v", ss, se)
	}
	// Cache: second call hits the sketch cache and must agree.
	if got := sketched.MatchColumns(fk, pk); got != ss {
		t.Fatal("cached sketch must give identical score")
	}
}

func TestSketchMatcherRejectsDegenerate(t *testing.T) {
	m := NewSketchMatcher()
	label := intCol("target", 0, 1, 0, 1)
	key := seqCol("k", 0, 100)
	if m.MatchColumns(label, key) != 0 {
		t.Fatal("degenerate columns rejected by the sketch matcher too")
	}
}

func TestDiscoverDRGSketched(t *testing.T) {
	tabs := lakeTables(t)
	// lakeTables uses 4-row columns; widen them so joinCandidate passes
	// and the sketch has signal.
	base := frame.New("orders")
	addCol(t, base, seqCol("order_id", 0, 400))
	addCol(t, base, seqCol("customer", 0, 400))
	cust := frame.New("customers")
	addCol(t, cust, seqCol("customer", 0, 500))
	addCol(t, cust, frame.NewFloatColumn("ltv", make([]float64, 500), nil))
	tabs = []*frame.Frame{base, cust}
	g, err := DiscoverDRGQuadratic(tabs, 0.55, NewSketchMatcher())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.EdgesBetween("orders", "customers")) == 0 {
		t.Fatal("sketched discovery must find the customer edge")
	}
}

// Property: Jaccard estimate is symmetric and within [0,1].
func TestSketchJaccardProperty(t *testing.T) {
	f := func(seedA, seedB uint8) bool {
		a := seqCol("a", int(seedA), int(seedA)+100)
		b := seqCol("b", int(seedB), int(seedB)+100)
		sa, sb := Sketch(a, 64), Sketch(b, 64)
		j1, j2 := sa.Jaccard(sb), sb.Jaccard(sa)
		return j1 == j2 && j1 >= 0 && j1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: containment of A in A∪B is >= Jaccard estimate direction-wise
// sanity (containment >= jaccard for the smaller set, approximately).
func TestSketchContainmentBoundsProperty(t *testing.T) {
	f := func(overlap uint8) bool {
		o := int(overlap) % 90
		a := seqCol("a", 0, 100)
		b := seqCol("b", 100-o, 200-o)
		sa, sb := Sketch(a, 128), Sketch(b, 128)
		c := sa.Containment(sb)
		return c >= 0 && c <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSketchVsExactMatch(b *testing.B) {
	fk := seqCol("user_id", 0, 20000)
	pk := seqCol("user_id", 0, 50000)
	b.Run("exact", func(b *testing.B) {
		m := NewMatcher()
		for i := 0; i < b.N; i++ {
			m.MatchColumns(fk, pk)
		}
	})
	b.Run("sketched", func(b *testing.B) {
		m := NewSketchMatcher()
		m.sketch(fk) // warm cache: steady-state compare cost
		m.sketch(pk)
		for i := 0; i < b.N; i++ {
			m.MatchColumns(fk, pk)
		}
	})
}
