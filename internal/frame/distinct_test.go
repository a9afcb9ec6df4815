package frame

import "testing"

func bigIntColumn(n int) *Column {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i % (n / 2))
	}
	return NewIntColumn("k", vals, nil)
}

// TestDistinctCountMemoised is the regression test for DistinctCount
// rescanning the column on every call: repeated calls must agree with
// ValueSet and answer from the count stored in the column memo.
func TestDistinctCountMemoised(t *testing.T) {
	c := bigIntColumn(1000)
	if got := c.DistinctCount(); got != 500 {
		t.Fatalf("DistinctCount = %d, want 500", got)
	}
	if len(c.ValueSet()) != c.DistinctCount() {
		t.Fatal("memoised count disagrees with the value set")
	}
	if c.memo.distinct != 500 {
		t.Fatal("count not stored in the column memo")
	}
	// Columns detached from a frame memo still answer correctly.
	raw := &Column{name: "raw", kind: Int, data: &memData{ints: []int64{1, 2, 2, 3}}}
	if got := raw.DistinctCount(); got != 3 {
		t.Fatalf("memo-less DistinctCount = %d, want 3", got)
	}
}

// BenchmarkDistinctCount asserts the memoisation satellite: repeat
// calls must be orders of magnitude cheaper than the first scan. Run
// with -bench to compare Cold (fresh column each call) vs Warm
// (memoised repeat calls on one column).
func BenchmarkDistinctCount(b *testing.B) {
	const n = 100_000
	b.Run("Cold", func(b *testing.B) {
		cols := make([]*Column, b.N)
		for i := range cols {
			cols[i] = bigIntColumn(n)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if cols[i].DistinctCount() != n/2 {
				b.Fatal("wrong count")
			}
		}
	})
	b.Run("Warm", func(b *testing.B) {
		c := bigIntColumn(n)
		c.DistinctCount() // prime the memo
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if c.DistinctCount() != n/2 {
				b.Fatal("wrong count")
			}
		}
	})
}

// TestDistinctCountSpeedup is the failing-before/passing-after check in
// test form: a warm column must answer DistinctCount probes without
// scanning. It measures work, not wall clock: a rescan would build a
// key set, so a warm probe must allocate nothing.
func TestDistinctCountSpeedup(t *testing.T) {
	c := bigIntColumn(50_000)
	c.DistinctCount()
	allocs := testing.AllocsPerRun(100, func() {
		if c.DistinctCount() != 25_000 {
			t.Fatal("wrong count")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm DistinctCount allocated %v times per call: it rescanned the column", allocs)
	}
}
