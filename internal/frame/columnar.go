package frame

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"autofeat/internal/sketch"
)

// The columnar lake format (one file per table, extension FormatExt) lays a
// table out as typed column blocks plus a JSON footer, so a lake open reads
// the footer and serves cell accesses straight out of the mapped file —
// no per-column Go slices, no CSV parsing, and no re-sketching (the footer
// carries each column's distinct count, numeric range and MinHash
// signature). The full byte-level specification lives in DESIGN.md §14;
// the constants below are audited against it by cmd/doccheck.
const (
	// FormatMagic opens and closes every columnar table file.
	FormatMagic = "AFCL"
	// FormatVersion is the format version this build reads and writes.
	// Like the cluster wire protocol (serve.CheckProto), the match is
	// exact: compatibility within a version is additive-only (new footer
	// fields), and any other version byte is a hard error, never a
	// negotiation.
	FormatVersion = 1
	// FormatExt is the table-file extension a lake directory scan treats
	// as columnar.
	FormatExt = ".afc"
)

// colrHeaderSize is the fixed prelude: magic + version byte.
const colrHeaderSize = len(FormatMagic) + 1

// colrTrailerSize is the fixed epilogue: uint32 footer length + version
// byte + magic. The trailer repeats the version and magic so a truncated
// or overwritten file fails fast at both ends.
const colrTrailerSize = 4 + 1 + len(FormatMagic)

// colrFooter is the JSON footer: everything a reader needs to serve the
// table without scanning the column blocks. Compatibility policy is
// additive-only within a version — readers must ignore unknown fields,
// writers may add fields but never change the meaning of existing ones.
type colrFooter struct {
	Rows    int           `json:"rows"`
	Columns []colrColMeta `json:"columns"`
}

// colrColMeta locates one column's blocks and carries its persisted stats.
type colrColMeta struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Nulls is the null-cell count; 0 means ValidOff is -1 and no bitmap
	// block exists.
	Nulls int `json:"nulls"`
	// ValidOff is the byte offset of the validity bitmap (LSB-first, bit
	// set = valid), or -1 when every cell is valid.
	ValidOff int `json:"valid_off"`
	// DataOff is the byte offset of the value block: 8-byte LE floats or
	// ints, 1-byte bools, or 4-byte LE dictionary codes for strings.
	DataOff int `json:"data_off"`
	// DictOff/DictLen locate the sorted string dictionary (string columns
	// only): DictLen entries of uvarint byte-length + raw bytes.
	DictOff int `json:"dict_off,omitempty"`
	DictLen int `json:"dict_len,omitempty"`
	// SketchOff/SketchK locate the MinHash signature block: SketchK
	// 8-byte LE slot minima.
	SketchOff int `json:"sketch_off"`
	SketchK   int `json:"sketch_k"`
	// Distinct is the exact distinct non-null key count (doubles as the
	// sketch cardinality).
	Distinct int `json:"distinct"`
	// Min/Max bound the numeric values when HasRange is true.
	Min      float64 `json:"min,omitempty"`
	Max      float64 `json:"max,omitempty"`
	HasRange bool    `json:"has_range,omitempty"`
}

// colrBase is the shared backing of every zero-copy column: a window into
// the mapped file plus the validity bitmap location. The accessors for
// kinds the concrete type does not shadow panic, matching the behaviour of
// a slice-backed column indexed with the wrong typed accessor.
type colrBase struct {
	buf      []byte
	n        int
	validOff int // -1 = all valid
}

func (b *colrBase) len() int       { return b.n }
func (b *colrBase) allValid() bool { return b.validOff < 0 }

func (b *colrBase) valid(i int) bool {
	if b.validOff < 0 {
		return true
	}
	if i < 0 || i >= b.n {
		panic("frame: column index out of range")
	}
	return b.buf[b.validOff+(i>>3)]&(1<<(uint(i)&7)) != 0
}

func (b *colrBase) float(int) float64 { panic("frame: not a float column") }
func (b *colrBase) intAt(int) int64   { panic("frame: not an int column") }
func (b *colrBase) str(int) string    { panic("frame: not a string column") }
func (b *colrBase) boolAt(int) bool   { panic("frame: not a bool column") }

type colrFloatData struct {
	colrBase
	off int
}

func (d *colrFloatData) float(i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off+8*i:]))
}

type colrIntData struct {
	colrBase
	off int
}

func (d *colrIntData) intAt(i int) int64 {
	return int64(binary.LittleEndian.Uint64(d.buf[d.off+8*i:]))
}

type colrBoolData struct {
	colrBase
	off int
}

func (d *colrBoolData) boolAt(i int) bool { return d.buf[d.off+i] != 0 }

type colrStringData struct {
	colrBase
	// dict is the decoded sorted dictionary (the only materialised part
	// of a string column; codes stay in the mapped file).
	dict     []string
	codesOff int
}

func (d *colrStringData) str(i int) string {
	code := binary.LittleEndian.Uint32(d.buf[d.codesOff+4*i:])
	// decodeColumn validated the codes of every valid row, so this guard
	// can only fire on null rows, whose codes bulk readers (Take) may
	// fetch before checking validity — e.g. the empty dictionary of an
	// all-null column. Returning "" there never masks corruption.
	if int(code) >= len(d.dict) {
		return ""
	}
	return d.dict[code]
}

// kindName maps a Kind to its footer spelling; kindFromName inverts it.
func kindName(k Kind) string { return k.String() }

func kindFromName(s string) (Kind, error) {
	switch s {
	case "float":
		return Float, nil
	case "int":
		return Int, nil
	case "string":
		return String, nil
	case "bool":
		return Bool, nil
	default:
		return 0, fmt.Errorf("frame: unknown column kind %q in columnar footer", s)
	}
}

// EncodeColumnar serialises the frame into the columnar format. The table
// name is not stored — like CSV, the filename names the table.
func EncodeColumnar(f *Frame) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(FormatMagic)
	buf.WriteByte(FormatVersion)

	rows := f.NumRows()
	footer := colrFooter{Rows: rows}
	for ci := 0; ci < f.NumCols(); ci++ {
		c := f.ColumnAt(ci)
		if c.Len() != rows {
			return nil, fmt.Errorf("frame: column %q has %d rows, frame has %d", c.Name(), c.Len(), rows)
		}
		meta, err := writeColumnBlocks(&buf, c)
		if err != nil {
			return nil, err
		}
		footer.Columns = append(footer.Columns, meta)
	}

	fb, err := json.Marshal(footer)
	if err != nil {
		return nil, err
	}
	buf.Write(fb)
	var tr [4]byte
	binary.LittleEndian.PutUint32(tr[:], uint32(len(fb)))
	buf.Write(tr[:])
	buf.WriteByte(FormatVersion)
	buf.WriteString(FormatMagic)
	return buf.Bytes(), nil
}

// writeColumnBlocks appends one column's bitmap, data, dictionary and
// sketch blocks and returns the footer entry locating them.
func writeColumnBlocks(buf *bytes.Buffer, c *Column) (colrColMeta, error) {
	n := c.Len()
	meta := colrColMeta{Name: c.Name(), Kind: kindName(c.Kind()), ValidOff: -1}

	if nulls := c.NullCount(); nulls > 0 {
		meta.Nulls = nulls
		meta.ValidOff = buf.Len()
		bitmap := make([]byte, (n+7)/8)
		for i := 0; i < n; i++ {
			if c.IsValid(i) {
				bitmap[i>>3] |= 1 << (uint(i) & 7)
			}
		}
		buf.Write(bitmap)
	}

	switch c.Kind() {
	case Float:
		meta.DataOff = buf.Len()
		var w [8]byte
		for i := 0; i < n; i++ {
			v := 0.0
			if c.IsValid(i) {
				v = c.Float(i)
			}
			binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
			buf.Write(w[:])
		}
	case Int:
		meta.DataOff = buf.Len()
		var w [8]byte
		for i := 0; i < n; i++ {
			var v int64
			if c.IsValid(i) {
				v = c.Int(i)
			}
			binary.LittleEndian.PutUint64(w[:], uint64(v))
			buf.Write(w[:])
		}
	case Bool:
		meta.DataOff = buf.Len()
		for i := 0; i < n; i++ {
			b := byte(0)
			if c.IsValid(i) && c.Bool(i) {
				b = 1
			}
			buf.WriteByte(b)
		}
	case String:
		dict, codes := stringDict(c)
		meta.DictOff = buf.Len()
		meta.DictLen = len(dict)
		var lw [binary.MaxVarintLen64]byte
		for _, s := range dict {
			buf.Write(lw[:binary.PutUvarint(lw[:], uint64(len(s)))])
			buf.WriteString(s)
		}
		meta.DataOff = buf.Len()
		var w [4]byte
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(w[:], codes[i])
			buf.Write(w[:])
		}
	}

	// Stats: min/max over valid numeric cells, then the MinHash signature
	// over deduplicated join keys — the same loop discovery.Sketch runs,
	// so the persisted signature is bit-identical to a freshly computed
	// one and discovery can trust it blindly.
	if c.Kind() != String {
		for i := 0; i < n; i++ {
			if !c.IsValid(i) {
				continue
			}
			var v float64
			switch c.Kind() {
			case Float:
				v = c.Float(i)
			case Int:
				v = float64(c.Int(i))
			case Bool:
				if c.Bool(i) {
					v = 1
				}
			}
			// NaN/Inf cells are stored verbatim in the data block but
			// excluded from the range: the footer is JSON, which cannot
			// carry non-finite numbers.
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			if !meta.HasRange {
				meta.Min, meta.Max, meta.HasRange = v, v, true
			} else {
				meta.Min = math.Min(meta.Min, v)
				meta.Max = math.Max(meta.Max, v)
			}
		}
	}

	s := sketch.New(sketch.DefaultSize)
	seen := make(map[string]struct{}, 256)
	for i := 0; i < n; i++ {
		key, ok := c.Key(i)
		if !ok {
			continue
		}
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		s.AddHash(sketch.Hash64(key))
	}
	s.Cardinality = len(seen)
	meta.Distinct = len(seen)
	meta.SketchOff = buf.Len()
	meta.SketchK = len(s.Mins)
	var w [8]byte
	for _, m := range s.Mins {
		binary.LittleEndian.PutUint64(w[:], m)
		buf.Write(w[:])
	}
	return meta, nil
}

// stringDict returns the sorted distinct non-null values and the per-row
// dictionary codes (null rows code to 0).
func stringDict(c *Column) ([]string, []uint32) {
	n := c.Len()
	set := make(map[string]struct{}, 64)
	for i := 0; i < n; i++ {
		if c.IsValid(i) {
			set[c.Str(i)] = struct{}{}
		}
	}
	dict := make([]string, 0, len(set))
	for s := range set {
		dict = append(dict, s)
	}
	sort.Strings(dict)
	code := make(map[string]uint32, len(dict))
	for i, s := range dict {
		code[s] = uint32(i)
	}
	codes := make([]uint32, n)
	for i := 0; i < n; i++ {
		if c.IsValid(i) {
			codes[i] = code[c.Str(i)]
		}
	}
	return dict, codes
}

// DecodeColumnar opens a columnar-format byte buffer as a Frame whose
// columns read straight out of buf (zero-copy for numeric data and string
// codes; only the string dictionaries are materialised). The buffer must
// stay immutable and alive for the life of the frame — the reader keeps
// references into it.
func DecodeColumnar(name string, buf []byte) (*Frame, error) {
	if len(buf) < colrHeaderSize+colrTrailerSize {
		return nil, fmt.Errorf("frame: %q: file too short for columnar format", name)
	}
	if string(buf[:len(FormatMagic)]) != FormatMagic {
		return nil, fmt.Errorf("frame: %q: bad magic, not a columnar table file", name)
	}
	if v := buf[len(FormatMagic)]; v != FormatVersion {
		return nil, fmt.Errorf("frame: %q: columnar format version %d is not %d", name, v, FormatVersion)
	}
	tail := buf[len(buf)-colrTrailerSize:]
	if string(tail[5:]) != FormatMagic || tail[4] != FormatVersion {
		return nil, fmt.Errorf("frame: %q: bad trailer, truncated or corrupt columnar file", name)
	}
	flen := int(binary.LittleEndian.Uint32(tail[:4]))
	fstart := len(buf) - colrTrailerSize - flen
	if flen < 0 || fstart < colrHeaderSize {
		return nil, fmt.Errorf("frame: %q: footer length %d out of bounds", name, flen)
	}
	var footer colrFooter
	if err := json.Unmarshal(buf[fstart:fstart+flen], &footer); err != nil {
		return nil, fmt.Errorf("frame: %q: decode columnar footer: %w", name, err)
	}
	// Every column kind stores at least one byte per row, so a row count
	// beyond the file size is corrupt. Rejecting it here also keeps the
	// per-block size arithmetic in decodeColumn (rows*8 etc.) far from int
	// overflow: rows is bounded by the length of a real in-memory buffer.
	if footer.Rows < 0 || footer.Rows > len(buf) {
		return nil, fmt.Errorf("frame: %q: footer row count %d out of bounds for %d-byte file", name, footer.Rows, len(buf))
	}

	f := New(name)
	for _, m := range footer.Columns {
		c, err := decodeColumn(buf, footer.Rows, fstart, m)
		if err != nil {
			return nil, fmt.Errorf("frame: %q: column %q: %w", name, m.Name, err)
		}
		if err := f.AddColumn(c); err != nil {
			return nil, err
		}
	}
	if f.NumCols() > 0 && f.NumRows() != footer.Rows {
		return nil, fmt.Errorf("frame: %q: footer says %d rows, columns hold %d", name, footer.Rows, f.NumRows())
	}
	return f, nil
}

// decodeColumn builds one zero-copy column view after bounds-checking every
// block against the footer start (nothing may read into the footer).
func decodeColumn(buf []byte, rows, limit int, m colrColMeta) (*Column, error) {
	kind, err := kindFromName(m.Kind)
	if err != nil {
		return nil, err
	}
	base := colrBase{buf: buf, n: rows, validOff: m.ValidOff}
	// The footer is untrusted input (serve accepts uploaded buffers), so
	// the bound is phrased as off > limit-size rather than off+size > limit:
	// with size >= 0 and limit <= len(buf) the subtraction cannot overflow,
	// whereas a huge off or size could wrap off+size negative and slip past.
	check := func(off, size int, what string) error {
		if size < 0 || off < colrHeaderSize || off > limit-size {
			return fmt.Errorf("%s block (%d bytes at %d) out of bounds", what, size, off)
		}
		return nil
	}
	if m.ValidOff >= 0 {
		if err := check(m.ValidOff, (rows+7)/8, "validity"); err != nil {
			return nil, err
		}
	}
	if m.SketchK < 0 || m.SketchK > 1<<20 {
		return nil, fmt.Errorf("implausible sketch size %d", m.SketchK)
	}
	if err := check(m.SketchOff, m.SketchK*8, "sketch"); err != nil {
		return nil, err
	}

	var data colData
	switch kind {
	case Float:
		if err := check(m.DataOff, rows*8, "float data"); err != nil {
			return nil, err
		}
		data = &colrFloatData{colrBase: base, off: m.DataOff}
	case Int:
		if err := check(m.DataOff, rows*8, "int data"); err != nil {
			return nil, err
		}
		data = &colrIntData{colrBase: base, off: m.DataOff}
	case Bool:
		if err := check(m.DataOff, rows, "bool data"); err != nil {
			return nil, err
		}
		data = &colrBoolData{colrBase: base, off: m.DataOff}
	case String:
		if err := check(m.DataOff, rows*4, "string codes"); err != nil {
			return nil, err
		}
		dict, err := decodeDict(buf, m, limit)
		if err != nil {
			return nil, err
		}
		// Validate every valid row's code against the dictionary now, so
		// corruption surfaces as a decode error here instead of a panic or
		// a silent empty string at first access.
		for i := 0; i < rows; i++ {
			if !base.valid(i) {
				continue
			}
			if code := binary.LittleEndian.Uint32(buf[m.DataOff+4*i:]); int(code) >= len(dict) {
				return nil, fmt.Errorf("row %d dictionary code %d out of range (%d entries)", i, code, len(dict))
			}
		}
		data = &colrStringData{colrBase: base, dict: dict, codesOff: m.DataOff}
	}

	stats := &ColStats{
		Distinct: m.Distinct,
		Nulls:    m.Nulls,
		Min:      m.Min,
		Max:      m.Max,
		HasRange: m.HasRange,
	}
	if m.SketchK > 0 {
		mins := make([]uint64, m.SketchK)
		for j := range mins {
			mins[j] = binary.LittleEndian.Uint64(buf[m.SketchOff+8*j:])
		}
		stats.Sketch = &sketch.MinHash{Mins: mins, Cardinality: m.Distinct}
	}
	return &Column{name: m.Name, kind: kind, data: data, stats: stats, memo: new(colMemo)}, nil
}

// decodeDict materialises a string column's sorted dictionary. The entries
// are copied out of the buffer: Go strings must not alias a mapping whose
// lifetime the garbage collector cannot see.
func decodeDict(buf []byte, m colrColMeta, limit int) ([]string, error) {
	if m.DictLen == 0 {
		return nil, nil
	}
	// Each entry costs at least its one-byte length prefix, so DictLen can
	// never exceed the bytes between DictOff and the footer; checking that
	// first also bounds the allocation below against a corrupt footer.
	if m.DictLen < 0 || m.DictOff < colrHeaderSize || m.DictOff > limit || m.DictLen > limit-m.DictOff {
		return nil, fmt.Errorf("dictionary (%d entries at %d) out of bounds", m.DictLen, m.DictOff)
	}
	dict := make([]string, 0, m.DictLen)
	off := m.DictOff
	for i := 0; i < m.DictLen; i++ {
		if off >= limit {
			return nil, fmt.Errorf("dictionary entry %d out of bounds", i)
		}
		l, n := binary.Uvarint(buf[off:limit])
		// l stays uint64 until it is proven to fit the remaining bytes —
		// a huge length must not wrap negative through int conversion and
		// slip past the bound.
		if n <= 0 || l > uint64(limit-off-n) {
			return nil, fmt.Errorf("dictionary entry %d corrupt", i)
		}
		off += n
		dict = append(dict, string(buf[off:off+int(l)]))
		off += int(l)
	}
	return dict, nil
}

// ReadColumnarFile opens a columnar table file; like ReadCSVFile, the table
// name is the base filename without its extension. On platforms with mmap
// the column data is served from the mapping without being read up front;
// elsewhere the file is read into memory. The mapping is never unmapped,
// so it is for tables that live for the process: a resident lake's, where
// a dropped table's mapping only costs the pages the kernel has not yet
// evicted. A caller that loads tables for one request and drops them
// reads the file with os.ReadFile and decodes it with DecodeColumnar, so
// the garbage collector reclaims it all; one-shot lake opens and
// Writer.Append do that.
func ReadColumnarFile(path string) (*Frame, error) {
	buf, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	base := filepath.Base(path)
	name := strings.TrimSuffix(base, filepath.Ext(base))
	return DecodeColumnar(name, buf)
}

// WriteColumnarFile writes the frame to path atomically: the bytes land in
// a temp file in the same directory which is fsynced and renamed over
// path, so a reader never observes a half-written table.
func WriteColumnarFile(f *Frame, path string) error {
	b, err := EncodeColumnar(f)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".afc-tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

// Writer is the append/compact write path for a columnar lake directory:
// Put writes a table file atomically (tmp+rename), Append merges new rows
// into an existing table and rewrites it compactly (dictionaries rebuilt,
// stats and sketches recomputed). One Writer per directory; concurrent
// Puts of different tables are safe, concurrent writes of the same table
// race on the final rename (last writer wins, each version complete).
type Writer struct {
	dir string
}

// NewWriter returns a Writer that writes table files into dir.
func NewWriter(dir string) *Writer { return &Writer{dir: dir} }

// Path returns the file path Put would write for a table name.
func (w *Writer) Path(table string) string { return filepath.Join(w.dir, table+FormatExt) }

// Put writes the frame as <dir>/<name>.afc atomically and returns the
// path.
func (w *Writer) Put(f *Frame) (string, error) {
	path := w.Path(f.Name())
	if err := WriteColumnarFile(f, path); err != nil {
		return "", err
	}
	return path, nil
}

// Append merges the frame's rows onto the existing table of the same name
// (matching schemas column-for-column) and rewrites the file compactly; if
// no file exists yet it behaves like Put.
func (w *Writer) Append(f *Frame) (string, error) {
	path := w.Path(f.Name())
	// The old table is read with os.ReadFile, not the mmap fast path: the
	// decoded frame only lives until the merge below materialises every
	// cell, and ReadColumnarFile's mappings are process-lifetime — going
	// through it here would leak a whole-file mapping per Append.
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return w.Put(f)
		}
		return "", err
	}
	base, err := DecodeColumnar(f.Name(), raw)
	if err != nil {
		return "", err
	}
	merged, err := appendRows(base, f)
	if err != nil {
		return "", err
	}
	if err := WriteColumnarFile(merged, path); err != nil {
		return "", err
	}
	return path, nil
}

// appendRows concatenates b's rows under a's schema. Column names, order
// and kinds must match exactly — the append path is for homogeneous table
// growth, not schema evolution.
func appendRows(a, b *Frame) (*Frame, error) {
	if a.NumCols() != b.NumCols() {
		return nil, fmt.Errorf("frame: append %q: %d columns onto %d", a.Name(), b.NumCols(), a.NumCols())
	}
	out := New(a.Name())
	an, bn := a.NumRows(), b.NumRows()
	for ci := 0; ci < a.NumCols(); ci++ {
		ca, cb := a.ColumnAt(ci), b.ColumnAt(ci)
		if ca.Name() != cb.Name() || ca.Kind() != cb.Kind() {
			return nil, fmt.Errorf("frame: append %q: column %d is %s %s, existing table has %s %s",
				a.Name(), ci, cb.Kind(), cb.Name(), ca.Kind(), ca.Name())
		}
		d := &memData{}
		if !ca.data.allValid() || !cb.data.allValid() {
			d.validB = make([]bool, an+bn)
			for i := 0; i < an; i++ {
				d.validB[i] = ca.IsValid(i)
			}
			for i := 0; i < bn; i++ {
				d.validB[an+i] = cb.IsValid(i)
			}
		}
		switch ca.Kind() {
		case Float:
			d.floats = make([]float64, an+bn)
			for i := 0; i < an; i++ {
				d.floats[i] = ca.Float(i)
			}
			for i := 0; i < bn; i++ {
				d.floats[an+i] = cb.Float(i)
			}
		case Int:
			d.ints = make([]int64, an+bn)
			for i := 0; i < an; i++ {
				d.ints[i] = ca.Int(i)
			}
			for i := 0; i < bn; i++ {
				d.ints[an+i] = cb.Int(i)
			}
		case String:
			d.strs = make([]string, an+bn)
			for i := 0; i < an; i++ {
				d.strs[i] = ca.Str(i)
			}
			for i := 0; i < bn; i++ {
				d.strs[an+i] = cb.Str(i)
			}
		case Bool:
			d.bools = make([]bool, an+bn)
			for i := 0; i < an; i++ {
				d.bools[i] = ca.Bool(i)
			}
			for i := 0; i < bn; i++ {
				d.bools[an+i] = cb.Bool(i)
			}
		}
		if err := out.AddColumn(newMemColumn(ca.Name(), ca.Kind(), d)); err != nil {
			return nil, err
		}
	}
	return out, nil
}
