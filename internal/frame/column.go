// Package frame implements the columnar table substrate used throughout the
// AutoFeat reproduction. It plays the role the pandas DataFrame plays in the
// original system: typed columns with null bitmaps, CSV ingestion with schema
// inference, imputation, stratified sampling and numeric encoding.
//
// Every column holds its cells in Go slices, whether it was parsed from
// CSV, decoded from a packed columnar lake file (see columnar.go) or
// derived by a join. A decoded column keeps no reference to the bytes it
// was read from; what it adds over a CSV column is the MinHash signature
// its file persisted (see ColStats). Counts are always read from cells.
//
// The package is deliberately self-contained (stdlib plus the sibling sketch
// package) and deterministic: every operation that involves randomness takes
// an explicit *rand.Rand.
package frame

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"

	"autofeat/internal/sketch"
)

// Kind enumerates the physical column types supported by the engine.
type Kind uint8

// Supported column kinds.
const (
	Float  Kind = iota // float64 storage
	Int                // int64 storage
	String             // string storage
	Bool               // bool storage
)

// String returns the human-readable name of the kind.
func (k Kind) String() string {
	switch k {
	case Float:
		return "float"
	case Int:
		return "int"
	case String:
		return "string"
	case Bool:
		return "bool"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// IsNumeric reports whether values of this kind can be used directly as
// numeric features without label encoding.
func (k Kind) IsNumeric() bool { return k == Float || k == Int || k == Bool }

// Column is a single named, typed column with an optional null bitmap.
type Column struct {
	name string
	kind Kind
	data *memData
	// stats holds the statistics persisted in a columnar footer; nil for
	// columns that were not read from a columnar file.
	stats *ColStats
	// memo caches derived read-only views of the column. It lives behind a
	// pointer so WithName copies share the cache (the backing storage is
	// shared too) and so copying a Column never copies a sync.Once.
	memo *colMemo
}

// ColStats carries the per-column statistics a columnar lake file persists
// in its footer. Sketch stands in for a fresh MinHash signature on cold
// open (bit-identical by construction — both sides use internal/sketch).
// Only ReadColumnarFile keeps it; uploaded bytes (DecodeColumnar) could
// carry any sketch, so their columns have no ColStats. The footer's
// distinct and null counts are never kept: DistinctCount and NullCount
// read the cells.
type ColStats struct {
	// Sketch is the persisted MinHash signature of the distinct key set,
	// or nil when the file predates sketch persistence. Its Cardinality
	// is left 0; discovery.Sketch sets the column's DistinctCount.
	Sketch *sketch.MinHash
}

// Stats returns the persisted statistics of a column read from a
// columnar file by ReadColumnarFile, or nil for any other column (derive
// stats via DistinctCount/ValueSet instead). The returned struct is
// shared and read-only.
func (c *Column) Stats() *ColStats { return c.stats }

// colMemo holds lazily computed, immutable derivations of a column.
type colMemo struct {
	distinctOnce sync.Once
	distinct     int
}

// memData is the storage behind every column: exactly one of the value
// slices is populated, matching the column kind. A nil validB means every
// cell is valid.
type memData struct {
	floats []float64
	ints   []int64
	strs   []string
	bools  []bool
	validB []bool
}

func (m *memData) len() int {
	switch {
	case m.floats != nil:
		return len(m.floats)
	case m.ints != nil:
		return len(m.ints)
	case m.strs != nil:
		return len(m.strs)
	default:
		return len(m.bools)
	}
}

func (m *memData) valid(i int) bool { return m.validB == nil || m.validB[i] }

// newMemColumn assembles a column; d.len() must already agree with the
// valid bitmap (use normalizeValid).
func newMemColumn(name string, kind Kind, d *memData) *Column {
	return &Column{name: name, kind: kind, data: d, memo: new(colMemo)}
}

// NewFloatColumn builds a float column. valid may be nil (all valid).
func NewFloatColumn(name string, values []float64, valid []bool) *Column {
	return newMemColumn(name, Float, &memData{floats: values, validB: normalizeValid(len(values), valid)})
}

// NewIntColumn builds an int column. valid may be nil (all valid).
func NewIntColumn(name string, values []int64, valid []bool) *Column {
	return newMemColumn(name, Int, &memData{ints: values, validB: normalizeValid(len(values), valid)})
}

// NewStringColumn builds a string column. valid may be nil (all valid).
func NewStringColumn(name string, values []string, valid []bool) *Column {
	return newMemColumn(name, String, &memData{strs: values, validB: normalizeValid(len(values), valid)})
}

// NewBoolColumn builds a bool column. valid may be nil (all valid).
func NewBoolColumn(name string, values []bool, valid []bool) *Column {
	return newMemColumn(name, Bool, &memData{bools: values, validB: normalizeValid(len(values), valid)})
}

// normalizeValid reconciles a bitmap whose length disagrees with the
// value count — the signature of corrupt input. The bitmap is truncated
// or padded with false (null), so a bad table degrades to extra nulls
// (which data-quality pruning then discards) instead of panicking.
func normalizeValid(n int, valid []bool) []bool {
	if valid == nil || len(valid) == n {
		return valid
	}
	out := make([]bool, n)
	copy(out, valid)
	return out
}

// Name returns the column name.
func (c *Column) Name() string { return c.name }

// Kind returns the physical type of the column.
func (c *Column) Kind() Kind { return c.kind }

// Len returns the number of cells in the column.
func (c *Column) Len() int { return c.data.len() }

// WithName returns a shallow copy of the column under a new name. The backing
// storage is shared; columns are treated as immutable once inside a Frame.
func (c *Column) WithName(name string) *Column {
	cp := *c
	cp.name = name
	return &cp
}

// IsValid reports whether cell i holds a non-null value.
func (c *Column) IsValid(i int) bool { return c.data.valid(i) }

// NullCount returns the number of null cells.
func (c *Column) NullCount() int {
	if c.data.validB == nil {
		return 0
	}
	n := 0
	for i, l := 0, c.data.len(); i < l; i++ {
		if !c.data.valid(i) {
			n++
		}
	}
	return n
}

// NullRatio returns NullCount/Len, or 0 for an empty column.
func (c *Column) NullRatio() float64 {
	n := c.Len()
	if n == 0 {
		return 0
	}
	return float64(c.NullCount()) / float64(n)
}

// Float returns cell i as float64. The column must be of kind Float.
func (c *Column) Float(i int) float64 { return c.data.floats[i] }

// Int returns cell i as int64. The column must be of kind Int.
func (c *Column) Int(i int) int64 { return c.data.ints[i] }

// Str returns cell i as string. The column must be of kind String.
func (c *Column) Str(i int) string { return c.data.strs[i] }

// Bool returns cell i as bool. The column must be of kind Bool.
func (c *Column) Bool(i int) bool { return c.data.bools[i] }

// Value returns cell i boxed as any, or nil when the cell is null.
func (c *Column) Value(i int) any {
	if !c.data.valid(i) {
		return nil
	}
	switch c.kind {
	case Float:
		return c.data.floats[i]
	case Int:
		return c.data.ints[i]
	case String:
		return c.data.strs[i]
	default:
		return c.data.bools[i]
	}
}

// FormatCell renders cell i for CSV output. Nulls render as the empty string.
func (c *Column) FormatCell(i int) string {
	if !c.data.valid(i) {
		return ""
	}
	switch c.kind {
	case Float:
		return strconv.FormatFloat(c.data.floats[i], 'g', -1, 64)
	case Int:
		return strconv.FormatInt(c.data.ints[i], 10)
	case String:
		return c.data.strs[i]
	default:
		return strconv.FormatBool(c.data.bools[i])
	}
}

// Key returns a comparable join key for cell i. Null cells return ("",
// false). Int and Float cells that hold the same integral value produce the
// same key, so an int64 FK can join a float64 PK.
func (c *Column) Key(i int) (string, bool) {
	if !c.data.valid(i) {
		return "", false
	}
	switch c.kind {
	case Float:
		f := c.data.floats[i]
		if intKeyed(f) {
			return strconv.FormatInt(int64(f), 10), true
		}
		return strconv.FormatFloat(f, 'g', -1, 64), true
	case Int:
		return strconv.FormatInt(c.data.ints[i], 10), true
	case String:
		return c.data.strs[i], true
	default:
		return strconv.FormatBool(c.data.bools[i]), true
	}
}

// intKeyed reports whether Key formats the float f as an integer: an
// integral value below 1e15 gets the key of the same Int value.
func intKeyed(f float64) bool {
	return f == math.Trunc(f) && !math.IsInf(f, 0) && math.Abs(f) < 1e15
}

// appendFloatKey appends the Key of a float cell to b.
func appendFloatKey(b []byte, f float64) []byte {
	if intKeyed(f) {
		return strconv.AppendInt(b, int64(f), 10)
	}
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

// Take returns a new column containing the cells at the given row indices, in
// order. An index of -1 yields a null cell (used by left joins for unmatched
// rows).
func (c *Column) Take(idx []int) *Column {
	d := &memData{}
	needValid := c.data.validB != nil
	for _, i := range idx {
		if i < 0 {
			needValid = true
			break
		}
	}
	if needValid {
		d.validB = make([]bool, len(idx))
	}
	switch c.kind {
	case Float:
		d.floats = make([]float64, len(idx))
	case Int:
		d.ints = make([]int64, len(idx))
	case String:
		d.strs = make([]string, len(idx))
	default:
		d.bools = make([]bool, len(idx))
	}
	for j, i := range idx {
		if i < 0 {
			continue // leave zero value, invalid
		}
		switch c.kind {
		case Float:
			d.floats[j] = c.data.floats[i]
		case Int:
			d.ints[j] = c.data.ints[i]
		case String:
			d.strs[j] = c.data.strs[i]
		default:
			d.bools[j] = c.data.bools[i]
		}
		if d.validB != nil {
			d.validB[j] = c.data.valid(i)
		}
	}
	return newMemColumn(c.name, c.kind, d)
}

// Floats returns the column as a dense []float64 suitable for statistics.
// Null cells become NaN. String columns are label-encoded: distinct values
// are sorted lexicographically and mapped to 0..k-1, which preserves rank
// semantics for ordinal string data and is stable across calls.
func (c *Column) Floats() []float64 {
	return c.AppendFloats(make([]float64, 0, c.Len()))
}

// AppendFloats appends the Floats of the column to dst and returns the
// extended slice, so a caller converting many columns can reuse one
// buffer.
func (c *Column) AppendFloats(dst []float64) []float64 {
	n, k := c.Len(), len(dst)
	dst = slices.Grow(dst, n)[:k+n]
	out := dst[k:]
	switch c.kind {
	case Float:
		for i := 0; i < n; i++ {
			if c.data.valid(i) {
				out[i] = c.data.floats[i]
			} else {
				out[i] = math.NaN()
			}
		}
	case Int:
		for i := 0; i < n; i++ {
			if c.data.valid(i) {
				out[i] = float64(c.data.ints[i])
			} else {
				out[i] = math.NaN()
			}
		}
	case Bool:
		for i := 0; i < n; i++ {
			switch {
			case !c.data.valid(i):
				out[i] = math.NaN()
			case c.data.bools[i]:
				out[i] = 1
			default:
				out[i] = 0
			}
		}
	case String:
		codes := c.stringCodes()
		for i := 0; i < n; i++ {
			if c.data.valid(i) {
				out[i] = float64(codes[i])
			} else {
				out[i] = math.NaN()
			}
		}
	}
	return dst
}

// stringCodes label-encodes a string column by sorted distinct value.
func (c *Column) stringCodes() []int {
	n := c.Len()
	distinct := make(map[string]struct{}, 16)
	for i := 0; i < n; i++ {
		if c.data.valid(i) {
			distinct[c.data.strs[i]] = struct{}{}
		}
	}
	vals := make([]string, 0, len(distinct))
	for s := range distinct {
		vals = append(vals, s)
	}
	sort.Strings(vals)
	code := make(map[string]int, len(vals))
	for i, s := range vals {
		code[s] = i
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		if c.data.valid(i) {
			out[i] = code[c.data.strs[i]]
		}
	}
	return out
}

// DistinctCount returns the number of distinct non-null join keys (see
// Key). The count is read from the cells once and memoised through the
// column's memo: the discovery matcher probes it per column per table
// pair, so an unmemoised count would rescan the column quadratically
// during DRG construction. Only the count is kept, not the key set, so a
// resident lake holds no per-column key maps. Safe for concurrent use.
func (c *Column) DistinctCount() int {
	if c.memo == nil {
		return c.countDistinct()
	}
	c.memo.distinctOnce.Do(func() { c.memo.distinct = c.countDistinct() })
	return c.memo.distinct
}

// countDistinct counts the key classes of the valid cells without
// formatting a key. Two cells of one column share a key exactly when
// they are equal or both NaN (every NaN keys as "NaN", and -0 keys as
// 0), so sorting a copy of the values and counting runs gives the count.
func (c *Column) countDistinct() int {
	switch c.kind {
	case Float:
		return countSortedRuns(c.data.floats, c.data.valid)
	case Int:
		return countSortedRuns(c.data.ints, c.data.valid)
	case String:
		return countSortedRuns(c.data.strs, c.data.valid)
	default:
		return len(c.ValueSet())
	}
}

// countSortedRuns counts the distinct valid values of vals, treating all
// NaNs as one value.
func countSortedRuns[T cmp.Ordered](vals []T, valid func(int) bool) int {
	return len(slices.CompactFunc(sortedValid(vals, valid), sameValue[T]))
}

// sortedValid returns the valid cells of vals in ascending order. The
// sort puts the NaNs together and −0 among the 0s.
func sortedValid[T cmp.Ordered](vals []T, valid func(int) bool) []T {
	kept := make([]T, 0, len(vals))
	for i, v := range vals {
		if valid(i) {
			kept = append(kept, v)
		}
	}
	slices.Sort(kept)
	return kept
}

// sameValue reports whether two cells hold the same value, counting all
// NaNs as one.
func sameValue[T cmp.Ordered](a, b T) bool { return a == b || (a != a && b != b) }

// Mode returns the most frequent non-null value as its Key and reports
// whether any non-null value exists. Ties break toward the
// lexicographically smallest key for determinism. Cells are counted as
// typed values, which Key formats one to one except where it folds (see
// modeOf); only the tied values are formatted, into a reused buffer.
func (c *Column) Mode() (string, bool) {
	switch c.kind {
	case Float:
		return modeOf(c.data.floats, c.data.valid, appendFloatKey)
	case Int:
		return modeOf(c.data.ints, c.data.valid, func(b []byte, v int64) []byte { return strconv.AppendInt(b, v, 10) })
	case String:
		return modeOf(c.data.strs, c.data.valid, func(b []byte, s string) []byte { return append(b, s...) })
	}
	trues, falses := 0, 0
	for i, v := range c.data.bools {
		switch {
		case !c.data.valid(i):
		case v:
			trues++
		default:
			falses++
		}
	}
	switch {
	case trues+falses == 0:
		return "", false
	case trues > falses:
		return "true", true
	}
	return "false", true
}

// modeOf counts the runs of equal values among the sorted valid cells of
// vals and returns the smallest appendKey formatting of the values whose
// run is longest, or false when no cell is valid. As in Key, all NaNs
// are one value and −0 is 0.
func modeOf[T cmp.Ordered](vals []T, valid func(int) bool, appendKey func([]byte, T) []byte) (string, bool) {
	kept := sortedValid(vals, valid)
	if len(kept) == 0 {
		return "", false
	}
	runEnd := func(i int) int {
		j := i + 1
		for j < len(kept) && sameValue(kept[j], kept[i]) {
			j++
		}
		return j
	}
	top := 0
	for i := 0; i < len(kept); {
		j := runEnd(i)
		top = max(top, j-i)
		i = j
	}
	var keyBuf, bestBuf [32]byte
	var best []byte
	for i := 0; i < len(kept); {
		j := runEnd(i)
		if j-i == top {
			if key := appendKey(keyBuf[:0], kept[i]); best == nil || bytes.Compare(key, best) < 0 {
				best = append(bestBuf[:0], key...)
			}
		}
		i = j
	}
	return string(best), true
}

// Imputed returns a copy of the column with nulls replaced by the most
// frequent value (the paper's imputation strategy). Columns without nulls
// are returned unchanged. If every cell is null, zeros are imputed.
func (c *Column) Imputed() *Column {
	if c.data.validB == nil || c.NullCount() == 0 {
		return c
	}
	mode, ok := c.Mode()
	d := &memData{}
	n := c.Len()
	switch c.kind {
	case Float:
		fill := 0.0
		if ok {
			fill, _ = strconv.ParseFloat(mode, 64)
		}
		d.floats = make([]float64, n)
		for i := 0; i < n; i++ {
			if c.data.valid(i) {
				d.floats[i] = c.data.floats[i]
			} else {
				d.floats[i] = fill
			}
		}
	case Int:
		var fill int64
		if ok {
			fill, _ = strconv.ParseInt(mode, 10, 64)
		}
		d.ints = make([]int64, n)
		for i := 0; i < n; i++ {
			if c.data.valid(i) {
				d.ints[i] = c.data.ints[i]
			} else {
				d.ints[i] = fill
			}
		}
	case String:
		d.strs = make([]string, n)
		for i := 0; i < n; i++ {
			if c.data.valid(i) {
				d.strs[i] = c.data.strs[i]
			} else {
				d.strs[i] = mode
			}
		}
	case Bool:
		fill := mode == "true"
		d.bools = make([]bool, n)
		for i := 0; i < n; i++ {
			if c.data.valid(i) {
				d.bools[i] = c.data.bools[i]
			} else {
				d.bools[i] = fill
			}
		}
	}
	return newMemColumn(c.name, c.kind, d)
}

// ValueSet returns a fresh set of the column's distinct non-null join
// keys (see Key). It scans every cell on each call; DistinctCount
// memoises its size without building it.
func (c *Column) ValueSet() map[string]struct{} {
	set := make(map[string]struct{}, 64)
	for i, n := 0, c.Len(); i < n; i++ {
		if k, ok := c.Key(i); ok {
			set[k] = struct{}{}
		}
	}
	return set
}

// Equal reports deep equality of names, kinds, validity and values.
// Float cells compare with exact equality except that two NaNs are equal.
// Persisted stats are not compared: a column read from CSV and one decoded
// from a columnar file holding the same cells are equal.
func (c *Column) Equal(o *Column) bool {
	if c.name != o.name || c.kind != o.kind || c.Len() != o.Len() {
		return false
	}
	for i, n := 0, c.Len(); i < n; i++ {
		if c.data.valid(i) != o.data.valid(i) {
			return false
		}
		if !c.data.valid(i) {
			continue
		}
		switch c.kind {
		case Float:
			a, b := c.data.floats[i], o.data.floats[i]
			if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
				return false
			}
		case Int:
			if c.data.ints[i] != o.data.ints[i] {
				return false
			}
		case String:
			if c.data.strs[i] != o.data.strs[i] {
				return false
			}
		case Bool:
			if c.data.bools[i] != o.data.bools[i] {
				return false
			}
		}
	}
	return true
}
