// Package frame implements the columnar table substrate used throughout the
// AutoFeat reproduction. It plays the role the pandas DataFrame plays in the
// original system: typed columns with null bitmaps, CSV ingestion with schema
// inference, imputation, stratified sampling and numeric encoding.
//
// Columns are views: the public surface (Len/At/IsNull/ValueSet/Numeric and
// the typed accessors) is backed by one of two storage engines — in-memory
// slices for CSV-ingested and derived columns, or a zero-copy window into a
// mapped columnar lake file (see columnar.go) for packed lakes. Callers
// cannot tell the backends apart; join, selection and discovery code reads
// through the same methods either way.
//
// The package is deliberately self-contained (stdlib plus the sibling sketch
// package) and deterministic: every operation that involves randomness takes
// an explicit *rand.Rand.
package frame

import (
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

// View is the read surface every column backend provides. *Column is the
// only implementation handed out by this package — the concrete type stays
// exported because downstream caches key on *Column identity — but tooling
// and examples are held to this interface (see api_guard_test.go) so they
// never depend on which storage engine backs a table.
type View interface {
	// Name returns the column name.
	Name() string
	// Kind returns the physical type of the column.
	Kind() Kind
	// Len returns the number of cells.
	Len() int
	// At returns cell i boxed as any, nil for null cells.
	At(i int) any
	// IsNull reports whether cell i is null.
	IsNull(i int) bool
	// ValueSet returns the distinct non-null join keys (read-only).
	ValueSet() map[string]struct{}
	// Numeric returns the column as a dense []float64 with NaN nulls.
	Numeric() []float64
}

var _ View = (*Column)(nil)

// colData is the storage engine behind a Column: either in-memory slices
// (memData, the CSV/derived path) or a zero-copy window into a mapped
// columnar file (the colr* types in columnar.go). Accessors for the wrong
// kind panic, matching the out-of-range panic the slice-backed column
// always had; Column's public methods dispatch on kind first.
type colData interface {
	len() int
	// allValid reports that no cell is null (the nil-bitmap fast path).
	allValid() bool
	valid(i int) bool
	float(i int) float64
	intAt(i int) int64
	str(i int) string
	boolAt(i int) bool
}

// Column is a single named, typed column view with an optional null bitmap.
// The storage behind it is one of two engines (see colData); everything
// above the data field is backend-agnostic.
type Column struct {
	name string
	kind Kind
	data colData
	// stats holds per-column statistics persisted in a columnar footer
	// (distinct count, min/max, MinHash sketch); nil for in-memory columns.
	stats *ColStats
	// memo caches derived read-only views of the column. It lives behind a
	// pointer so WithName copies share the cache (the backing storage is
	// shared too) and so copying a Column never copies a sync.Once.
	memo *colMemo
}

// ColStats carries the per-column statistics a columnar lake file persists
// in its footer. Discovery reads them to skip whole-column scans on cold
// open: Distinct seeds DistinctCount, Sketch stands in for a fresh MinHash
// signature (bit-identical by construction — both sides use
// internal/sketch), and Min/Max support quick range pruning.
type ColStats struct {
	// Distinct is the exact distinct non-null key count.
	Distinct int
	// Nulls is the null-cell count.
	Nulls int
	// Min and Max bound the numeric values (valid only when HasRange;
	// string and all-null columns have no range).
	Min, Max float64
	// HasRange reports whether Min/Max are meaningful.
	HasRange bool
	// Sketch is the persisted MinHash signature of the distinct key set,
	// or nil when the file predates sketch persistence.
	Sketch *sketch.MinHash
}

// Stats returns the persisted statistics for a columnar-backed column, or
// nil for in-memory columns (derive stats via DistinctCount/ValueSet
// instead). The returned struct is shared and read-only.
func (c *Column) Stats() *ColStats { return c.stats }

// colMemo holds lazily computed, immutable derivations of a column.
type colMemo struct {
	valueSetOnce sync.Once
	valueSet     map[string]struct{}
	distinctOnce sync.Once
	distinct     int
}

// memData is the in-memory storage engine: exactly one of the value slices
// is populated, matching the column kind. A nil validB means every cell is
// valid.
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

func (m *memData) allValid() bool      { return m.validB == nil }
func (m *memData) valid(i int) bool    { return m.validB == nil || m.validB[i] }
func (m *memData) float(i int) float64 { return m.floats[i] }
func (m *memData) intAt(i int) int64   { return m.ints[i] }
func (m *memData) str(i int) string    { return m.strs[i] }
func (m *memData) boolAt(i int) bool   { return m.bools[i] }

// newMemColumn assembles an in-memory column; the d.len() must already
// agree with the valid bitmap (use normalizeValid).
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

// IsNull reports whether cell i is null — the View-facing negation of
// IsValid.
func (c *Column) IsNull(i int) bool { return !c.data.valid(i) }

// NullCount returns the number of null cells.
func (c *Column) NullCount() int {
	if c.data.allValid() {
		return 0
	}
	if c.stats != nil {
		return c.stats.Nulls
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
func (c *Column) Float(i int) float64 { return c.data.float(i) }

// Int returns cell i as int64. The column must be of kind Int.
func (c *Column) Int(i int) int64 { return c.data.intAt(i) }

// Str returns cell i as string. The column must be of kind String.
func (c *Column) Str(i int) string { return c.data.str(i) }

// Bool returns cell i as bool. The column must be of kind Bool.
func (c *Column) Bool(i int) bool { return c.data.boolAt(i) }

// Value returns cell i boxed as any, or nil when the cell is null.
func (c *Column) Value(i int) any {
	if !c.data.valid(i) {
		return nil
	}
	switch c.kind {
	case Float:
		return c.data.float(i)
	case Int:
		return c.data.intAt(i)
	case String:
		return c.data.str(i)
	default:
		return c.data.boolAt(i)
	}
}

// At returns cell i boxed as any, or nil when the cell is null. It is the
// View-interface name for Value.
func (c *Column) At(i int) any { return c.Value(i) }

// FormatCell renders cell i for CSV output. Nulls render as the empty string.
func (c *Column) FormatCell(i int) string {
	if !c.data.valid(i) {
		return ""
	}
	switch c.kind {
	case Float:
		return strconv.FormatFloat(c.data.float(i), 'g', -1, 64)
	case Int:
		return strconv.FormatInt(c.data.intAt(i), 10)
	case String:
		return c.data.str(i)
	default:
		return strconv.FormatBool(c.data.boolAt(i))
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
		f := c.data.float(i)
		if f == math.Trunc(f) && !math.IsInf(f, 0) && math.Abs(f) < 1e15 {
			return strconv.FormatInt(int64(f), 10), true
		}
		return strconv.FormatFloat(f, 'g', -1, 64), true
	case Int:
		return strconv.FormatInt(c.data.intAt(i), 10), true
	case String:
		return c.data.str(i), true
	default:
		return strconv.FormatBool(c.data.boolAt(i)), true
	}
}

// Take returns a new column containing the cells at the given row indices, in
// order. An index of -1 yields a null cell (used by left joins for unmatched
// rows). The result is always in-memory, regardless of the source backend:
// join outputs are request-scoped, not lake-resident.
func (c *Column) Take(idx []int) *Column {
	d := &memData{}
	needValid := !c.data.allValid()
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
			d.floats[j] = c.data.float(i)
		case Int:
			d.ints[j] = c.data.intAt(i)
		case String:
			d.strs[j] = c.data.str(i)
		default:
			d.bools[j] = c.data.boolAt(i)
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
				out[i] = c.data.float(i)
			} else {
				out[i] = math.NaN()
			}
		}
	case Int:
		for i := 0; i < n; i++ {
			if c.data.valid(i) {
				out[i] = float64(c.data.intAt(i))
			} else {
				out[i] = math.NaN()
			}
		}
	case Bool:
		for i := 0; i < n; i++ {
			switch {
			case !c.data.valid(i):
				out[i] = math.NaN()
			case c.data.boolAt(i):
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

// Numeric returns the column as a dense []float64 with NaN nulls. It is the
// View-interface name for Floats.
func (c *Column) Numeric() []float64 { return c.Floats() }

// stringCodes label-encodes a string column by sorted distinct value.
func (c *Column) stringCodes() []int {
	n := c.Len()
	distinct := make(map[string]struct{}, 16)
	for i := 0; i < n; i++ {
		if c.data.valid(i) {
			distinct[c.data.str(i)] = struct{}{}
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
			out[i] = code[c.data.str(i)]
		}
	}
	return out
}

// DistinctCount returns the number of distinct non-null values. A column
// loaded from a columnar lake file answers from its persisted footer stats
// without touching cell data — the seed that lets DRG construction probe
// join candidates on a cold open without scanning every column. Otherwise
// the count is computed once and memoised through the column's memo (the
// same sync.Once discipline as ValueSet): the discovery matcher probes it
// per column per table pair, so an unmemoised count would rescan the column
// quadratically during DRG construction. Safe for concurrent use.
func (c *Column) DistinctCount() int {
	if c.stats != nil {
		return c.stats.Distinct
	}
	if c.memo == nil {
		return len(c.buildValueSet())
	}
	c.memo.distinctOnce.Do(func() { c.memo.distinct = len(c.ValueSet()) })
	return c.memo.distinct
}

// Mode returns the most frequent non-null value as a formatted cell string
// and reports whether any non-null value exists. Ties break toward the
// lexicographically smallest key for determinism.
func (c *Column) Mode() (string, bool) {
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

// Imputed returns a copy of the column with nulls replaced by the most
// frequent value (the paper's imputation strategy). Columns without nulls
// are returned unchanged. If every cell is null, zeros are imputed. The
// copy is in-memory regardless of the source backend.
func (c *Column) Imputed() *Column {
	if c.data.allValid() || c.NullCount() == 0 {
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
				d.floats[i] = c.data.float(i)
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
				d.ints[i] = c.data.intAt(i)
			} else {
				d.ints[i] = fill
			}
		}
	case String:
		d.strs = make([]string, n)
		for i := 0; i < n; i++ {
			if c.data.valid(i) {
				d.strs[i] = c.data.str(i)
			} else {
				d.strs[i] = mode
			}
		}
	case Bool:
		fill := mode == "true"
		d.bools = make([]bool, n)
		for i := 0; i < n; i++ {
			if c.data.valid(i) {
				d.bools[i] = c.data.boolAt(i)
			} else {
				d.bools[i] = fill
			}
		}
	}
	return newMemColumn(c.name, c.kind, d)
}

// ValueSet returns the set of distinct non-null join keys, used by the
// instance-based discovery matcher to estimate joinability. The set is
// computed once and memoised (columns are immutable inside a Frame), so
// the returned map is shared: callers must treat it as read-only. Safe
// for concurrent use.
func (c *Column) ValueSet() map[string]struct{} {
	if c.memo == nil {
		return c.buildValueSet()
	}
	c.memo.valueSetOnce.Do(func() { c.memo.valueSet = c.buildValueSet() })
	return c.memo.valueSet
}

func (c *Column) buildValueSet() map[string]struct{} {
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
// Backends are not compared: a CSV-backed and a columnar-backed column
// holding the same cells are equal.
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
			a, b := c.data.float(i), o.data.float(i)
			if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
				return false
			}
		case Int:
			if c.data.intAt(i) != o.data.intAt(i) {
				return false
			}
		case String:
			if c.data.str(i) != o.data.str(i) {
				return false
			}
		case Bool:
			if c.data.boolAt(i) != o.data.boolAt(i) {
				return false
			}
		}
	}
	return true
}
