package frame

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func sampleFrame(t *testing.T) *Frame {
	t.Helper()
	f := New("people")
	mustAdd(t, f, NewIntColumn("id", []int64{1, 2, 3, 4, 5, 6}, nil))
	mustAdd(t, f, NewStringColumn("city", []string{"delft", "delft", "leiden", "haag", "leiden", "delft"}, nil))
	mustAdd(t, f, NewFloatColumn("income", []float64{10, 20, 30, 0, 50, 60}, []bool{true, true, true, false, true, true}))
	mustAdd(t, f, NewIntColumn("label", []int64{0, 1, 0, 1, 0, 1}, nil))
	return f
}

func mustAdd(t *testing.T, f *Frame, c *Column) {
	t.Helper()
	if err := f.AddColumn(c); err != nil {
		t.Fatal(err)
	}
}

func TestFrameBasics(t *testing.T) {
	f := sampleFrame(t)
	if f.NumRows() != 6 || f.NumCols() != 4 {
		t.Fatalf("shape = %dx%d, want 6x4", f.NumRows(), f.NumCols())
	}
	if f.Column("city") == nil || f.Column("nope") != nil {
		t.Fatal("Column lookup broken")
	}
	if !f.HasColumn("id") || f.HasColumn("nope") {
		t.Fatal("HasColumn broken")
	}
	if f.ColumnAt(0).Name() != "id" {
		t.Fatal("ColumnAt broken")
	}
}

func TestFrameAddColumnErrors(t *testing.T) {
	f := sampleFrame(t)
	if err := f.AddColumn(NewIntColumn("id", []int64{1, 2, 3, 4, 5, 6}, nil)); err == nil {
		t.Fatal("duplicate column must fail")
	}
	if err := f.AddColumn(NewIntColumn("short", []int64{1}, nil)); err == nil {
		t.Fatal("length mismatch must fail")
	}
}

func TestFrameSelectDrop(t *testing.T) {
	f := sampleFrame(t)
	sel, err := f.Select("city", "id")
	if err != nil {
		t.Fatal(err)
	}
	if got := sel.ColumnNames(); got[0] != "city" || got[1] != "id" || len(got) != 2 {
		t.Fatalf("Select order wrong: %v", got)
	}
	if _, err := f.Select("missing"); err == nil {
		t.Fatal("Select of missing column must fail")
	}
}

func TestFrameTakeAndHead(t *testing.T) {
	f := sampleFrame(t)
	h := f.Head(2)
	if h.NumRows() != 2 || h.Column("id").Int(1) != 2 {
		t.Fatal("Head broken")
	}
	if f.Head(100).NumRows() != 6 {
		t.Fatal("Head beyond length must clamp")
	}
	tk := f.Take([]int{5, -1})
	if tk.Column("id").Int(0) != 6 {
		t.Fatal("Take broken")
	}
	if tk.Column("id").IsValid(1) {
		t.Fatal("Take -1 must null the row")
	}
}

func TestFramePrefixed(t *testing.T) {
	f := sampleFrame(t)
	p := f.Prefixed("people")
	if !p.HasColumn("people.id") {
		t.Fatalf("Prefixed wrong: %v", p.ColumnNames())
	}
	// Idempotent: prefixing twice must not double-prefix.
	pp := p.Prefixed("people")
	if !pp.HasColumn("people.id") || pp.HasColumn("people.people.id") {
		t.Fatalf("double prefix: %v", pp.ColumnNames())
	}
}

func TestFrameConcatCols(t *testing.T) {
	f := sampleFrame(t)
	g := New("extra")
	mustAdd(t, g, NewIntColumn("id", []int64{9, 9, 9, 9, 9, 9}, nil))
	mustAdd(t, g, NewFloatColumn("z", []float64{1, 2, 3, 4, 5, 6}, nil))
	out, err := f.ConcatCols(g)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumCols() != 6 {
		t.Fatalf("NumCols = %d, want 6", out.NumCols())
	}
	if !out.HasColumn("id_2") {
		t.Fatalf("duplicate name must be suffixed: %v", out.ColumnNames())
	}
	short := New("short")
	mustAdd(t, short, NewIntColumn("w", []int64{1}, nil))
	if _, err := f.ConcatCols(short); err == nil {
		t.Fatal("row mismatch must fail")
	}
}

func TestFrameNullRatioCompleteness(t *testing.T) {
	f := sampleFrame(t)
	want := 1.0 / 24.0
	if got := f.NullRatio(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("NullRatio = %v, want %v", got, want)
	}
	if New("empty").NullRatio() != 0 {
		t.Fatal("empty frame null ratio must be 0")
	}
}

func TestFrameImputed(t *testing.T) {
	f := sampleFrame(t)
	imp := f.Imputed()
	if imp.NullRatio() != 0 {
		t.Fatal("imputed frame must have no nulls")
	}
	if f.Column("income").NullCount() != 1 {
		t.Fatal("Imputed must not mutate the source")
	}
}

func TestFrameMatrixAndLabels(t *testing.T) {
	f := sampleFrame(t)
	m, err := f.Matrix([]string{"income", "city"})
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 6 || len(m[0]) != 2 {
		t.Fatal("matrix shape wrong")
	}
	if !math.IsNaN(m[3][0]) {
		t.Fatal("null income must be NaN in matrix")
	}
	// city label-encoded: delft=0, haag=1, leiden=2
	if m[0][1] != 0 || m[2][1] != 2 || m[3][1] != 1 {
		t.Fatalf("city encoding wrong: %v %v %v", m[0][1], m[2][1], m[3][1])
	}
	if _, err := f.Matrix([]string{"ghost"}); err == nil {
		t.Fatal("missing feature must fail")
	}
	y, err := f.Labels("label")
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 0 || y[1] != 1 {
		t.Fatal("labels wrong")
	}
	if _, err := f.Labels("income"); err == nil {
		t.Fatal("null labels must fail")
	}
	if _, err := f.Labels("ghost"); err == nil {
		t.Fatal("missing label must fail")
	}
}

func TestFrameLabelsNonIntegral(t *testing.T) {
	f := New("t")
	mustAdd(t, f, NewFloatColumn("y", []float64{0.5}, nil))
	if _, err := f.Labels("y"); err == nil {
		t.Fatal("non-integral label must fail")
	}
}

func TestFrameClassDistribution(t *testing.T) {
	f := sampleFrame(t)
	d, err := f.ClassDistribution("label")
	if err != nil {
		t.Fatal(err)
	}
	if d[0] != 3 || d[1] != 3 {
		t.Fatalf("distribution = %v", d)
	}
}

func TestFrameEqualAndWithName(t *testing.T) {
	f := sampleFrame(t)
	g := sampleFrame(t)
	if !f.Equal(g) {
		t.Fatal("identical frames must be equal")
	}
	if f.Equal(g.WithName("other")) {
		t.Fatal("different names must not be equal")
	}
	sub, err := g.Select("id")
	if err != nil {
		t.Fatal(err)
	}
	if f.Equal(sub) {
		t.Fatal("different schemas must not be equal")
	}
}

func TestFrameString(t *testing.T) {
	f := sampleFrame(t)
	s := f.String()
	if !strings.Contains(s, "people [6 rows x 4 cols]") {
		t.Fatalf("preview header missing: %s", s)
	}
	if !strings.Contains(s, "more rows") {
		t.Fatal("preview must note truncation")
	}
}

func TestStratifiedSplitPreservesDistribution(t *testing.T) {
	n := 1000
	ids := make([]int64, n)
	labels := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
		if i%4 == 0 {
			labels[i] = 1 // 25% positive
		}
	}
	f := New("big")
	mustAdd(t, f, NewIntColumn("id", ids, nil))
	mustAdd(t, f, NewIntColumn("y", labels, nil))
	sp, err := f.StratifiedSplit("y", 0.8, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Train.NumRows()+sp.Test.NumRows() != n {
		t.Fatal("split must partition all rows")
	}
	dTrain, _ := sp.Train.ClassDistribution("y")
	frac := float64(dTrain[1]) / float64(sp.Train.NumRows())
	if math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("train positive fraction = %v, want ~0.25", frac)
	}
	// No leakage: train and test indices disjoint.
	seen := map[int]bool{}
	for _, i := range sp.TrainIdx {
		seen[i] = true
	}
	for _, i := range sp.TestIdx {
		if seen[i] {
			t.Fatal("train/test leakage")
		}
	}
}

func TestStratifiedSplitBadFraction(t *testing.T) {
	f := sampleFrame(t)
	for _, frac := range []float64{0, 1, -0.5, 1.5} {
		if _, err := f.StratifiedSplit("label", frac, rand.New(rand.NewSource(1))); err == nil {
			t.Fatalf("fraction %v must fail", frac)
		}
	}
}

func TestStratifiedSplitDeterminism(t *testing.T) {
	f := sampleFrame(t)
	a, _ := f.StratifiedSplit("label", 0.5, rand.New(rand.NewSource(3)))
	b, _ := f.StratifiedSplit("label", 0.5, rand.New(rand.NewSource(3)))
	if !a.Train.Equal(b.Train) || !a.Test.Equal(b.Test) {
		t.Fatal("same seed must give same split")
	}
}

func TestStratifiedSample(t *testing.T) {
	f := sampleFrame(t)
	s, err := f.StratifiedSample("label", 4, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if s.NumRows() < 2 || s.NumRows() > 4 {
		t.Fatalf("sample size = %d, want <= 4", s.NumRows())
	}
	// Sampling more than available returns an equal copy, never the
	// receiver (callers may treat the sample as an independent frame).
	s2, _ := f.StratifiedSample("label", 100, rand.New(rand.NewSource(5)))
	if s2 == f {
		t.Fatal("oversized sample must not alias the original frame")
	}
	if !s2.Equal(f) {
		t.Fatal("oversized sample must keep every row")
	}
}

func TestStratifiedSampleManyTinyClasses(t *testing.T) {
	// 30 classes of 2 rows each. The one-row-per-class floor alone would
	// pick 30 rows; the old rounding could therefore return 3x the requested
	// size. The trimmed sample must hit n exactly.
	n := 60
	ids := make([]int64, n)
	labels := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
		labels[i] = int64(i / 2)
	}
	f := New("tiny")
	mustAdd(t, f, NewIntColumn("id", ids, nil))
	mustAdd(t, f, NewIntColumn("y", labels, nil))
	s, err := f.StratifiedSample("y", 10, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	if s.NumRows() != 10 {
		t.Fatalf("sample size = %d, want exactly 10 (floors must be trimmed)", s.NumRows())
	}
	d, err := s.ClassDistribution("y")
	if err != nil {
		t.Fatal(err)
	}
	for c, cnt := range d {
		if cnt != 1 {
			t.Fatalf("class %d sampled %d rows, want 1 (trim may not stack rows)", c, cnt)
		}
	}
	// When n >= #classes, every class stays represented.
	s2, err := f.StratifiedSample("y", 35, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumRows() > 35 {
		t.Fatalf("sample size = %d, must never exceed n=35", s2.NumRows())
	}
	d2, err := s2.ClassDistribution("y")
	if err != nil {
		t.Fatal(err)
	}
	if len(d2) != 30 {
		t.Fatalf("all 30 classes must stay represented, got %d", len(d2))
	}
}
