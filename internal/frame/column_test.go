package frame

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestColumnBasics(t *testing.T) {
	c := NewFloatColumn("x", []float64{1, 2, 3}, []bool{true, false, true})
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	if c.Kind() != Float {
		t.Fatalf("Kind = %v, want Float", c.Kind())
	}
	if c.IsValid(1) {
		t.Fatal("cell 1 should be null")
	}
	if c.NullCount() != 1 {
		t.Fatalf("NullCount = %d, want 1", c.NullCount())
	}
	if got := c.NullRatio(); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("NullRatio = %v, want 1/3", got)
	}
	if v := c.Value(1); v != nil {
		t.Fatalf("Value(1) = %v, want nil", v)
	}
	if v := c.Value(0); v != 1.0 {
		t.Fatalf("Value(0) = %v, want 1", v)
	}
}

func TestColumnKindString(t *testing.T) {
	cases := map[Kind]string{Float: "float", Int: "int", String: "string", Bool: "bool"}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	if !Float.IsNumeric() || !Int.IsNumeric() || !Bool.IsNumeric() {
		t.Error("float/int/bool should be numeric")
	}
	if String.IsNumeric() {
		t.Error("string should not be numeric")
	}
}

func TestColumnTake(t *testing.T) {
	c := NewIntColumn("id", []int64{10, 20, 30, 40}, nil)
	got := c.Take([]int{3, 0, -1, 1})
	if got.Len() != 4 {
		t.Fatalf("Len = %d, want 4", got.Len())
	}
	if got.Int(0) != 40 || got.Int(1) != 10 || got.Int(3) != 20 {
		t.Fatalf("unexpected values: %v %v %v", got.Int(0), got.Int(1), got.Int(3))
	}
	if got.IsValid(2) {
		t.Fatal("index -1 must produce a null cell")
	}
	if got.NullCount() != 1 {
		t.Fatalf("NullCount = %d, want 1", got.NullCount())
	}
}

func TestColumnTakePreservesNulls(t *testing.T) {
	c := NewStringColumn("s", []string{"a", "b", "c"}, []bool{true, false, true})
	got := c.Take([]int{1, 2})
	if got.IsValid(0) {
		t.Fatal("null must survive Take")
	}
	if !got.IsValid(1) || got.Str(1) != "c" {
		t.Fatal("valid cell must survive Take")
	}
}

func TestColumnKeyIntFloatCompat(t *testing.T) {
	ic := NewIntColumn("k", []int64{7}, nil)
	fc := NewFloatColumn("k", []float64{7.0}, nil)
	ik, _ := ic.Key(0)
	fk, _ := fc.Key(0)
	if ik != fk {
		t.Fatalf("int key %q != float key %q; integral values must join", ik, fk)
	}
	frac := NewFloatColumn("k", []float64{7.5}, nil)
	fk2, _ := frac.Key(0)
	if fk2 == ik {
		t.Fatal("7.5 must not share a key with 7")
	}
}

func TestColumnKeyNull(t *testing.T) {
	c := NewFloatColumn("x", []float64{1}, []bool{false})
	if _, ok := c.Key(0); ok {
		t.Fatal("null cell must not produce a key")
	}
}

func TestColumnFloatsEncoding(t *testing.T) {
	s := NewStringColumn("cat", []string{"b", "a", "b", "c"}, []bool{true, true, true, false})
	got := s.Floats()
	// sorted distinct: a=0, b=1, c=2 (c is null here so absent from codes is fine)
	if got[0] != 1 || got[1] != 0 || got[2] != 1 {
		t.Fatalf("label encoding wrong: %v", got)
	}
	if !math.IsNaN(got[3]) {
		t.Fatalf("null must encode to NaN, got %v", got[3])
	}
	b := NewBoolColumn("flag", []bool{true, false}, nil)
	bf := b.Floats()
	if bf[0] != 1 || bf[1] != 0 {
		t.Fatalf("bool encoding wrong: %v", bf)
	}
	// AppendFloats into a reused buffer keeps what is there and writes
	// every cell, false and null included, as Floats does.
	cols := []*Column{s, b, NewBoolColumn("f", []bool{false, true, false}, []bool{true, true, false}),
		NewIntColumn("i", []int64{4, 0, -2}, []bool{true, false, true}), NewFloatColumn("x", []float64{0.5, 0, -1}, []bool{false, true, true})}
	for _, c := range cols {
		buf := []float64{9, 9, 9, 9, 9, 9}
		got := c.AppendFloats(buf[:2])
		want := c.Floats()
		if len(got) != 2+len(want) || got[0] != 9 || got[1] != 9 {
			t.Fatalf("%s: AppendFloats = %v", c.Name(), got)
		}
		for i, w := range want {
			if g := got[2+i]; g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Fatalf("%s: AppendFloats = %v, Floats = %v", c.Name(), got, want)
			}
		}
	}
}

func TestColumnMode(t *testing.T) {
	c := NewIntColumn("x", []int64{3, 1, 3, 2, 3, 1}, nil)
	m, ok := c.Mode()
	if !ok || m != "3" {
		t.Fatalf("Mode = %q/%v, want 3/true", m, ok)
	}
	empty := NewIntColumn("x", []int64{1}, []bool{false})
	if _, ok := empty.Mode(); ok {
		t.Fatal("all-null column must have no mode")
	}
}

func TestColumnModeTieBreak(t *testing.T) {
	c := NewStringColumn("x", []string{"b", "a"}, nil)
	m, _ := c.Mode()
	if m != "a" {
		t.Fatalf("tie must break lexicographically, got %q", m)
	}
}

func TestColumnImputed(t *testing.T) {
	c := NewFloatColumn("x", []float64{5, 0, 5, 0}, []bool{true, false, true, false})
	got := c.Imputed()
	if got.NullCount() != 0 {
		t.Fatalf("imputed column still has %d nulls", got.NullCount())
	}
	if got.Float(1) != 5 || got.Float(3) != 5 {
		t.Fatalf("nulls must become the mode: %v", got.Floats())
	}
	// original untouched
	if c.NullCount() != 2 {
		t.Fatal("Imputed must not mutate the receiver")
	}
	s := NewStringColumn("s", []string{"x", "", "x"}, []bool{true, false, true})
	si := s.Imputed()
	if si.Str(1) != "x" {
		t.Fatalf("string imputation wrong: %q", si.Str(1))
	}
	b := NewBoolColumn("b", []bool{true, false, true}, []bool{true, false, true})
	bi := b.Imputed()
	if bi.Bool(1) != true {
		t.Fatal("bool imputation must fill mode (true)")
	}
	i := NewIntColumn("i", []int64{2, 0, 2}, []bool{true, false, true})
	ii := i.Imputed()
	if ii.Int(1) != 2 {
		t.Fatal("int imputation must fill mode (2)")
	}
}

func TestColumnImputedNoNullsReturnsSame(t *testing.T) {
	c := NewIntColumn("x", []int64{1, 2}, nil)
	if c.Imputed() != c {
		t.Fatal("no-null column should be returned unchanged")
	}
}

func TestColumnDistinctAndValueSet(t *testing.T) {
	c := NewStringColumn("x", []string{"a", "b", "a", ""}, []bool{true, true, true, false})
	if got := c.DistinctCount(); got != 2 {
		t.Fatalf("DistinctCount = %d, want 2", got)
	}
	set := c.ValueSet()
	if len(set) != 2 {
		t.Fatalf("ValueSet size = %d, want 2", len(set))
	}
	if _, ok := set["a"]; !ok {
		t.Fatal("value set must contain 'a'")
	}
	// DistinctCount counts values without formatting keys, so it must
	// put cells in the classes Key does: every NaN is one key, -0 keys as
	// 0, and a null cell is no key whatever value it holds.
	nan := math.NaN()
	for _, c := range []*Column{
		NewFloatColumn("f", []float64{nan, math.Copysign(0, -1), 0, nan, 1e15, 1e15 + 2, 0.5, math.Inf(1), 7, 3},
			[]bool{true, true, true, true, true, true, true, true, true, false}),
		NewIntColumn("i", []int64{-1, 1, -1, math.MaxInt64, 5}, []bool{true, true, true, true, false}),
		NewStringColumn("s", []string{"b", "", "b", "a"}, nil),
		NewBoolColumn("b", []bool{true, true, false}, []bool{true, true, false}),
	} {
		if got, want := c.DistinctCount(), len(c.ValueSet()); got != want {
			t.Errorf("column %q: DistinctCount %d, Key classes %d", c.Name(), got, want)
		}
	}
}

func TestColumnEqual(t *testing.T) {
	a := NewFloatColumn("x", []float64{1, math.NaN()}, nil)
	b := NewFloatColumn("x", []float64{1, math.NaN()}, nil)
	if !a.Equal(b) {
		t.Fatal("NaN cells must compare equal")
	}
	c := NewFloatColumn("x", []float64{1, 2}, nil)
	if a.Equal(c) {
		t.Fatal("different values must not be equal")
	}
	d := NewFloatColumn("y", []float64{1, math.NaN()}, nil)
	if a.Equal(d) {
		t.Fatal("different names must not be equal")
	}
}

func TestColumnWithName(t *testing.T) {
	a := NewIntColumn("x", []int64{1}, nil)
	b := a.WithName("y")
	if b.Name() != "y" || a.Name() != "x" {
		t.Fatal("WithName must rename the copy only")
	}
	if b.Int(0) != 1 {
		t.Fatal("WithName must share data")
	}
}

// Property: Take with identity indices is equality.
func TestColumnTakeIdentityProperty(t *testing.T) {
	f := func(vals []float64) bool {
		valid := make([]bool, len(vals))
		for i := range valid {
			valid[i] = i%3 != 0
		}
		c := NewFloatColumn("x", vals, valid)
		idx := make([]int, len(vals))
		for i := range idx {
			idx[i] = i
		}
		return c.Take(idx).Equal(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: imputation never increases distinct count and removes all nulls.
func TestColumnImputedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(vals []int64) bool {
		if len(vals) == 0 {
			return true
		}
		valid := make([]bool, len(vals))
		anyValid := false
		for i := range valid {
			valid[i] = rng.Intn(2) == 0
			anyValid = anyValid || valid[i]
		}
		if !anyValid {
			valid[0] = true
		}
		c := NewIntColumn("x", vals, valid)
		imp := c.Imputed()
		return imp.NullCount() == 0 && imp.DistinctCount() <= c.DistinctCount()+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
