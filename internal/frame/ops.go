package frame

import (
	"fmt"
	"math"
	"strings"
)

// ColumnSummary describes one column for Describe.
type ColumnSummary struct {
	Name      string
	Kind      Kind
	Nulls     int
	NullRatio float64
	Distinct  int
	// Mean/Std/Min/Max are NaN for string columns.
	Mean, Std, Min, Max float64
}

// Describe returns per-column summary statistics, the dataframe
// "describe" equivalent used by examples and debugging.
func (f *Frame) Describe() []ColumnSummary {
	out := make([]ColumnSummary, 0, f.NumCols())
	for _, c := range f.cols {
		s := ColumnSummary{
			Name:      c.Name(),
			Kind:      c.Kind(),
			Nulls:     c.NullCount(),
			NullRatio: c.NullRatio(),
			Distinct:  c.DistinctCount(),
			Mean:      math.NaN(), Std: math.NaN(), Min: math.NaN(), Max: math.NaN(),
		}
		if c.Kind() != String {
			vals := c.Floats()
			s.Mean = statMean(vals)
			s.Std = math.Sqrt(statVar(vals, s.Mean))
			s.Min, s.Max = statMinMax(vals)
		}
		out = append(out, s)
	}
	return out
}

// DescribeString renders Describe as an aligned text table.
func (f *Frame) DescribeString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %-7s %6s %8s %10s %10s %10s %10s\n",
		"column", "kind", "nulls", "distinct", "mean", "std", "min", "max")
	for _, s := range f.Describe() {
		fmt.Fprintf(&b, "%-24s %-7s %6d %8d %10.4g %10.4g %10.4g %10.4g\n",
			s.Name, s.Kind, s.Nulls, s.Distinct, s.Mean, s.Std, s.Min, s.Max)
	}
	return b.String()
}

func statMean(vals []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range vals {
		if !math.IsNaN(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

func statVar(vals []float64, mean float64) float64 {
	if math.IsNaN(mean) {
		return math.NaN()
	}
	sum, n := 0.0, 0
	for _, v := range vals {
		if !math.IsNaN(v) {
			d := v - mean
			sum += d * d
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

func statMinMax(vals []float64) (float64, float64) {
	mn, mx := math.Inf(1), math.Inf(-1)
	n := 0
	for _, v := range vals {
		if !math.IsNaN(v) {
			mn = math.Min(mn, v)
			mx = math.Max(mx, v)
			n++
		}
	}
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	return mn, mx
}
