package frame

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// refMode is Column.Mode as the package shipped it before Mode counted
// typed values, kept verbatim (only renamed): it counts the formatted
// Key of every valid cell and picks the most frequent, ties broken by
// the smallest key.
func (c *Column) refMode() (string, bool) {
	counts := make(map[string]int, 16)
	for i, n := 0, c.Len(); i < n; i++ {
		if k, ok := c.Key(i); ok {
			counts[k]++
		}
	}
	if len(counts) == 0 {
		return "", false
	}
	best, bestN := "", -1
	for k, n := range counts {
		if n > bestN || (n == bestN && k < best) {
			best, bestN = k, n
		}
	}
	return best, true
}

// TestModeMatchesReference holds Mode to refMode on columns of every kind,
// over the cells Key folds (NaN payloads, −0, integral floats on both
// sides of 1e15) and ties whose formatted keys sort unlike their values
// ("10" before "9"). Imputed must fill a null cell with the value the
// reference mode parses to, bit for bit.
func TestModeMatchesReference(t *testing.T) {
	nan2 := math.Float64frombits(0x7ff8000000000bad)
	negZero := math.Copysign(0, -1)
	cols := []*Column{
		NewFloatColumn("ties", []float64{10, 9, 10, 9, 0}, []bool{true, true, true, true, false}),
		NewFloatColumn("nan", []float64{math.NaN(), nan2, -nan2, 1, 2, 0}, []bool{true, true, true, true, true, false}),
		NewFloatColumn("zeros", []float64{negZero, 0, 5, 5, negZero, 7}, []bool{true, true, true, true, true, false}),
		NewFloatColumn("integral", []float64{3, 3.0, 2.5, 1e15, 1e15, 999999999999999, 999999999999999, 1}, nil),
		NewFloatColumn("huge", []float64{1e15, 1e15, 2e15, 2e15, 3.5, 0}, []bool{true, true, true, true, true, false}),
		NewFloatColumn("infinities", []float64{math.Inf(1), math.Inf(-1), math.Inf(1), math.Inf(-1), 0}, []bool{true, true, true, true, false}),
		NewFloatColumn("negative zero wins", []float64{negZero, negZero, 1, 0}, []bool{true, true, true, false}),
		NewFloatColumn("all null", []float64{1, 2}, []bool{false, false}),
		NewFloatColumn("empty", nil, nil),
		NewIntColumn("int ties", []int64{10, 9, 9, 10, -1, 0}, []bool{true, true, true, true, true, false}),
		NewIntColumn("int all null", []int64{1}, []bool{false}),
		NewBoolColumn("bool tie", []bool{true, false, true}, []bool{true, true, false}),
		NewBoolColumn("bool", []bool{true, true, false, false}, []bool{true, true, true, false}),
		NewStringColumn("string tie", []string{"b", "a", "10", "9", ""}, []bool{true, true, true, true, false}),
		NewStringColumn("string numbers", []string{"9", "10", "9", "10", "x"}, nil),
	}
	rng := rand.New(rand.NewSource(4))
	floats := []float64{math.NaN(), nan2, negZero, 0, 1, 9, 10, 2.5, 1e15, 1e16, -1e15, 999999999999999.5, math.Inf(1)}
	for it := 0; it < 400; it++ {
		n := rng.Intn(40)
		valid := make([]bool, n)
		f := make([]float64, n)
		ints := make([]int64, n)
		bools := make([]bool, n)
		strs := make([]string, n)
		for i := range valid {
			valid[i] = rng.Intn(5) > 0
			f[i] = floats[rng.Intn(len(floats))]
			ints[i] = int64(rng.Intn(12)) - 2
			bools[i] = rng.Intn(2) == 0
			strs[i] = strconv.Itoa(rng.Intn(12))
		}
		cols = append(cols,
			NewFloatColumn("f", f, valid), NewIntColumn("i", ints, valid),
			NewBoolColumn("b", bools, valid), NewStringColumn("s", strs, valid))
	}
	for _, c := range cols {
		got, gotOK := c.Mode()
		want, wantOK := c.refMode()
		if got != want || gotOK != wantOK {
			t.Fatalf("%s (%v): Mode = %q/%v, reference %q/%v", c.Name(), c.Kind(), got, gotOK, want, wantOK)
		}
		null := -1
		for i := 0; i < c.Len(); i++ {
			if !c.IsValid(i) {
				null = i
				break
			}
		}
		if null < 0 {
			continue
		}
		filled := c.Imputed()
		switch c.Kind() {
		case Float:
			fill := 0.0
			if wantOK {
				fill, _ = strconv.ParseFloat(want, 64)
			}
			if g := filled.Float(null); math.Float64bits(g) != math.Float64bits(fill) {
				t.Fatalf("%s: Imputed fills %v (%#x), want %v (%#x)", c.Name(), g, math.Float64bits(g), fill, math.Float64bits(fill))
			}
		case Int:
			var fill int64
			if wantOK {
				fill, _ = strconv.ParseInt(want, 10, 64)
			}
			if g := filled.Int(null); g != fill {
				t.Fatalf("%s: Imputed fills %d, want %d", c.Name(), g, fill)
			}
		case String:
			if g := filled.Str(null); g != want {
				t.Fatalf("%s: Imputed fills %q, want %q", c.Name(), g, want)
			}
		case Bool:
			if g := filled.Bool(null); g != (want == "true") {
				t.Fatalf("%s: Imputed fills %v, want %q", c.Name(), g, want)
			}
		}
	}
}
