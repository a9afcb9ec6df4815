package frame

import (
	"fmt"
	"math"
	"strings"
)

// Frame is an ordered collection of equal-length columns, i.e. a table.
// Frames are value-semantics-light: structural operations (Take, Select,
// Concat, ...) return new frames that may share column storage with their
// inputs; columns are never mutated in place after being added.
type Frame struct {
	name  string
	cols  []*Column
	index map[string]int
}

// New creates an empty frame with the given table name.
func New(name string) *Frame {
	return &Frame{name: name, index: make(map[string]int)}
}

// Name returns the table name.
func (f *Frame) Name() string { return f.name }

// WithName returns a shallow copy of the frame under a new table name.
func (f *Frame) WithName(name string) *Frame {
	out := New(name)
	for _, c := range f.cols {
		out.add(c)
	}
	return out
}

// NumRows returns the number of rows (0 for a frame with no columns).
func (f *Frame) NumRows() int {
	if len(f.cols) == 0 {
		return 0
	}
	return f.cols[0].Len()
}

// NumCols returns the number of columns.
func (f *Frame) NumCols() int { return len(f.cols) }

// AddColumn appends a column. It fails if the name already exists or the
// length disagrees with existing columns.
func (f *Frame) AddColumn(c *Column) error {
	if _, dup := f.index[c.Name()]; dup {
		return fmt.Errorf("frame %q: duplicate column %q", f.name, c.Name())
	}
	if len(f.cols) > 0 && c.Len() != f.NumRows() {
		return fmt.Errorf("frame %q: column %q has %d rows, want %d", f.name, c.Name(), c.Len(), f.NumRows())
	}
	f.index[c.Name()] = len(f.cols)
	f.cols = append(f.cols, c)
	return nil
}

// add appends c for internal structural operations (WithName, Take,
// Drop, Prefixed, Imputed), which only ever add columns of the frame's
// own row count — so the only conflict class is a duplicate name, which
// is resolved with a numeric suffix ("x_2") exactly like ConcatCols.
// Corrupt names therefore degrade instead of panicking.
func (f *Frame) add(c *Column) {
	name := c.Name()
	if _, dup := f.index[name]; dup {
		for i := 2; ; i++ {
			candidate := fmt.Sprintf("%s_%d", c.Name(), i)
			if _, taken := f.index[candidate]; !taken {
				name = candidate
				break
			}
		}
		c = c.WithName(name)
	}
	f.index[name] = len(f.cols)
	f.cols = append(f.cols, c)
}

// Column returns the named column, or nil when absent.
func (f *Frame) Column(name string) *Column {
	if i, ok := f.index[name]; ok {
		return f.cols[i]
	}
	return nil
}

// HasColumn reports whether a column with the given name exists.
func (f *Frame) HasColumn(name string) bool {
	_, ok := f.index[name]
	return ok
}

// ColumnAt returns the column at position i.
func (f *Frame) ColumnAt(i int) *Column { return f.cols[i] }

// ColumnNames returns the column names in order.
func (f *Frame) ColumnNames() []string {
	out := make([]string, len(f.cols))
	for i, c := range f.cols {
		out[i] = c.Name()
	}
	return out
}

// Columns returns the columns in order. The returned slice is a copy; the
// columns themselves are shared.
func (f *Frame) Columns() []*Column {
	out := make([]*Column, len(f.cols))
	copy(out, f.cols)
	return out
}

// Take returns a new frame containing the rows at the given indices, in
// order. Index -1 produces an all-null row.
func (f *Frame) Take(idx []int) *Frame {
	out := New(f.name)
	for _, c := range f.cols {
		out.add(c.Take(idx))
	}
	return out
}

// Select returns a new frame with only the named columns, in the order
// given. Unknown names are an error.
func (f *Frame) Select(names ...string) (*Frame, error) {
	out := New(f.name)
	for _, n := range names {
		c := f.Column(n)
		if c == nil {
			return nil, fmt.Errorf("frame %q: no column %q", f.name, n)
		}
		if err := out.AddColumn(c); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Prefixed returns a copy of the frame whose columns are renamed to
// "prefix.column". Columns already carrying the prefix keep their name.
// Join results use this to keep feature provenance unambiguous.
func (f *Frame) Prefixed(prefix string) *Frame {
	out := New(f.name)
	for _, c := range f.cols {
		name := c.Name()
		if !strings.HasPrefix(name, prefix+".") {
			name = prefix + "." + name
		}
		out.add(c.WithName(name))
	}
	return out
}

// ConcatCols returns a frame with f's columns followed by g's. Duplicate
// names in g get a numeric suffix; mismatched row counts are an error.
func (f *Frame) ConcatCols(g *Frame) (*Frame, error) {
	if f.NumCols() > 0 && g.NumCols() > 0 && f.NumRows() != g.NumRows() {
		return nil, fmt.Errorf("frame: concat row mismatch %d vs %d", f.NumRows(), g.NumRows())
	}
	out := New(f.name)
	for _, c := range f.cols {
		out.add(c)
	}
	for _, c := range g.cols {
		name := c.Name()
		for i := 2; out.HasColumn(name); i++ {
			name = fmt.Sprintf("%s_%d", c.Name(), i)
		}
		if err := out.AddColumn(c.WithName(name)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Imputed returns a copy of the frame with every column's nulls replaced by
// that column's most frequent value (Section V-B methodology).
func (f *Frame) Imputed() *Frame {
	out := New(f.name)
	for _, c := range f.cols {
		out.add(c.Imputed())
	}
	return out
}

// NullRatio returns the fraction of null cells over the whole frame.
func (f *Frame) NullRatio() float64 {
	cells, nulls := 0, 0
	for _, c := range f.cols {
		cells += c.Len()
		nulls += c.NullCount()
	}
	if cells == 0 {
		return 0
	}
	return float64(nulls) / float64(cells)
}

// Equal reports whether two frames have identical names, schemas and cells.
func (f *Frame) Equal(g *Frame) bool {
	if f.name != g.name || len(f.cols) != len(g.cols) {
		return false
	}
	for i := range f.cols {
		if !f.cols[i].Equal(g.cols[i]) {
			return false
		}
	}
	return true
}

// Head returns the first n rows (or fewer if the frame is shorter).
func (f *Frame) Head(n int) *Frame {
	if n > f.NumRows() {
		n = f.NumRows()
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return f.Take(idx)
}

// String renders a compact textual preview used by examples and debugging.
func (f *Frame) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s [%d rows x %d cols]\n", f.name, f.NumRows(), f.NumCols())
	show := f.NumRows()
	if show > 5 {
		show = 5
	}
	b.WriteString(strings.Join(f.ColumnNames(), " | "))
	b.WriteByte('\n')
	for i := 0; i < show; i++ {
		cells := make([]string, len(f.cols))
		for j, c := range f.cols {
			cells[j] = c.FormatCell(i)
		}
		b.WriteString(strings.Join(cells, " | "))
		b.WriteByte('\n')
	}
	if f.NumRows() > show {
		fmt.Fprintf(&b, "... (%d more rows)\n", f.NumRows()-show)
	}
	return b.String()
}

// Matrix converts the named feature columns into a dense row-major numeric
// matrix. Nulls become NaN; string columns are label-encoded (see
// Column.Floats). The caller is expected to have imputed first when the
// downstream consumer cannot handle NaN.
func (f *Frame) Matrix(features []string) ([][]float64, error) {
	cols := make([][]float64, len(features))
	for j, name := range features {
		c := f.Column(name)
		if c == nil {
			return nil, fmt.Errorf("frame %q: no feature column %q", f.name, name)
		}
		cols[j] = c.Floats()
	}
	n := f.NumRows()
	rows := make([][]float64, n)
	flat := make([]float64, n*len(features))
	for i := 0; i < n; i++ {
		rows[i] = flat[i*len(features) : (i+1)*len(features)]
		for j := range features {
			rows[i][j] = cols[j][i]
		}
	}
	return rows, nil
}

// Labels converts the named column into integer class labels. Float labels
// must be integral; nulls are an error (impute first).
func (f *Frame) Labels(name string) ([]int, error) {
	c := f.Column(name)
	if c == nil {
		return nil, fmt.Errorf("frame %q: no label column %q", f.name, name)
	}
	vals := c.Floats()
	out := make([]int, len(vals))
	for i, v := range vals {
		if math.IsNaN(v) {
			return nil, fmt.Errorf("frame %q: null label at row %d", f.name, i)
		}
		if v != math.Trunc(v) {
			return nil, fmt.Errorf("frame %q: non-integral label %v at row %d", f.name, v, i)
		}
		out[i] = int(v)
	}
	return out, nil
}

// ClassDistribution returns the per-class row counts for a label column,
// keyed by class id. Used by tests to verify left joins preserve the label
// distribution exactly (Section IV-B).
func (f *Frame) ClassDistribution(label string) (map[int]int, error) {
	y, err := f.Labels(label)
	if err != nil {
		return nil, err
	}
	out := make(map[int]int)
	for _, v := range y {
		out[v]++
	}
	return out, nil
}
