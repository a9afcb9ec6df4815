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
// table out as typed column blocks plus a JSON footer, so a lake open
// decodes each column in one pass over its block — no CSV parsing, no type
// inference and no re-sketching (the footer locates each column's MinHash
// signature). The full byte-level
// specification lives in DESIGN.md §14; the constants below are audited
// against it by cmd/doccheck.
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

// headerSize is the fixed prelude: magic + version byte.
const headerSize = len(FormatMagic) + 1

// trailerSize is the fixed epilogue: uint32 footer length + version
// byte + magic. The trailer repeats the version and magic so a truncated
// or overwritten file fails fast at both ends.
const trailerSize = 4 + 1 + len(FormatMagic)

// fileFooter is the JSON footer: everything a reader needs to locate and
// decode the column blocks. Compatibility policy is
// additive-only within a version — readers must ignore unknown fields,
// writers may add fields but never change the meaning of existing ones.
type fileFooter struct {
	Rows    int          `json:"rows"`
	Columns []columnMeta `json:"columns"`
}

// columnMeta locates one column's blocks and carries its persisted stats.
type columnMeta struct {
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
	// Distinct is the exact distinct non-null key count. Like Min and
	// Max, the writer keeps it so the format stays as it is; the reader
	// ignores it and counts the cells (Column.DistinctCount).
	Distinct int `json:"distinct"`
	// Min/Max bound the numeric values when HasRange is true. The writer
	// keeps them so the format stays as it is; the reader ignores them.
	Min      float64 `json:"min,omitempty"`
	Max      float64 `json:"max,omitempty"`
	HasRange bool    `json:"has_range,omitempty"`
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
	footer := fileFooter{Rows: rows}
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
func writeColumnBlocks(buf *bytes.Buffer, c *Column) (columnMeta, error) {
	n := c.Len()
	meta := columnMeta{Name: c.Name(), Kind: kindName(c.Kind()), ValidOff: -1}

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

// DecodeColumnar decodes a columnar-format byte buffer into a Frame. Every
// column is decoded into the same Go slices ReadCSV builds, so the frame
// keeps no reference to buf. buf is untrusted (serve decodes uploaded
// tables): every block is bounds-checked, and the blocks the footer names
// may not claim more bytes than the file holds between header and footer.
// The persisted MinHash sketches are bounds-checked but not kept, since
// nothing ties them to the cells: discovery sketches the decoded columns
// from their values, as it does a CSV table's.
func DecodeColumnar(name string, buf []byte) (*Frame, error) {
	return decodeColumnar(name, buf, false)
}

// decodeColumnar is DecodeColumnar, keeping the persisted sketches as
// the columns' Stats when keepSketches is set.
func decodeColumnar(name string, buf []byte, keepSketches bool) (*Frame, error) {
	if len(buf) < headerSize+trailerSize {
		return nil, fmt.Errorf("frame: %q: file too short for columnar format", name)
	}
	if string(buf[:len(FormatMagic)]) != FormatMagic {
		return nil, fmt.Errorf("frame: %q: bad magic, not a columnar table file", name)
	}
	if v := buf[len(FormatMagic)]; v != FormatVersion {
		return nil, fmt.Errorf("frame: %q: columnar format version %d is not %d", name, v, FormatVersion)
	}
	tail := buf[len(buf)-trailerSize:]
	if string(tail[5:]) != FormatMagic || tail[4] != FormatVersion {
		return nil, fmt.Errorf("frame: %q: bad trailer, truncated or corrupt columnar file", name)
	}
	flen := int(binary.LittleEndian.Uint32(tail[:4]))
	fstart := len(buf) - trailerSize - flen
	if flen < 0 || fstart < headerSize {
		return nil, fmt.Errorf("frame: %q: footer length %d out of bounds", name, flen)
	}
	var footer fileFooter
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
	budget := blockBudget(fstart - headerSize)
	for _, m := range footer.Columns {
		c, err := decodeColumn(buf, footer.Rows, fstart, &budget, m, keepSketches)
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

// blockBudget counts the bytes between the header and the footer that no
// block has claimed yet. EncodeColumnar lays blocks out disjointly, so the
// blocks of every file it writes use up exactly these bytes. A footer
// whose blocks claim more names some bytes twice, and decoding them once
// per claim would let a small file allocate many times its size.
type blockBudget int

// take claims size bytes for one block.
func (b *blockBudget) take(size int, what string) error {
	if size > int(*b) {
		return fmt.Errorf("%s block (%d bytes) overlaps other blocks: only %d block bytes are unclaimed", what, size, int(*b))
	}
	*b -= blockBudget(size)
	return nil
}

// decodeColumn decodes one column into slices after bounds-checking every
// block against the footer start (nothing may read into the footer) and
// claiming its bytes from budget.
func decodeColumn(buf []byte, rows, limit int, budget *blockBudget, m columnMeta, keepSketch bool) (*Column, error) {
	kind, err := kindFromName(m.Kind)
	if err != nil {
		return nil, err
	}
	// The footer is untrusted input (serve accepts uploaded buffers), so
	// the bound is phrased as off > limit-size rather than off+size > limit:
	// with size >= 0 and limit <= len(buf) the subtraction cannot overflow,
	// whereas a huge off or size could wrap off+size negative and slip past.
	check := func(off, size int, what string) error {
		if size < 0 || off < headerSize || off > limit-size {
			return fmt.Errorf("%s block (%d bytes at %d) out of bounds", what, size, off)
		}
		return budget.take(size, what)
	}
	d := &memData{}
	nulls := 0
	if m.ValidOff >= 0 {
		if err := check(m.ValidOff, (rows+7)/8, "validity"); err != nil {
			return nil, err
		}
		d.validB = make([]bool, rows)
		for i := range d.validB {
			d.validB[i] = buf[m.ValidOff+(i>>3)]&(1<<(uint(i)&7)) != 0
			if !d.validB[i] {
				nulls++
			}
		}
	}
	// NullCount reads the bitmap, not the footer; a footer count the
	// bitmap does not bear out marks the file corrupt or hostile.
	if m.Nulls != nulls {
		return nil, fmt.Errorf("footer counts %d nulls, validity bitmap has %d", m.Nulls, nulls)
	}
	if m.SketchK < 0 || m.SketchK > 1<<20 {
		return nil, fmt.Errorf("implausible sketch size %d", m.SketchK)
	}
	if err := check(m.SketchOff, m.SketchK*8, "sketch"); err != nil {
		return nil, err
	}

	switch kind {
	case Float:
		if err := check(m.DataOff, rows*8, "float data"); err != nil {
			return nil, err
		}
		d.floats = make([]float64, rows)
		for i := range d.floats {
			d.floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[m.DataOff+8*i:]))
		}
	case Int:
		if err := check(m.DataOff, rows*8, "int data"); err != nil {
			return nil, err
		}
		d.ints = make([]int64, rows)
		for i := range d.ints {
			d.ints[i] = int64(binary.LittleEndian.Uint64(buf[m.DataOff+8*i:]))
		}
	case Bool:
		if err := check(m.DataOff, rows, "bool data"); err != nil {
			return nil, err
		}
		d.bools = make([]bool, rows)
		for i := range d.bools {
			d.bools[i] = buf[m.DataOff+i] != 0
		}
	case String:
		if err := check(m.DataOff, rows*4, "string codes"); err != nil {
			return nil, err
		}
		dict, err := decodeDict(buf, m, limit, budget)
		if err != nil {
			return nil, err
		}
		// A valid row's code out of the dictionary is a decode error, not a
		// cell; null rows' codes are unconstrained and read as "".
		d.strs = make([]string, rows)
		for i := range d.strs {
			if !d.valid(i) {
				continue
			}
			code := binary.LittleEndian.Uint32(buf[m.DataOff+4*i:])
			if uint64(code) >= uint64(len(dict)) {
				return nil, fmt.Errorf("row %d dictionary code %d out of range (%d entries)", i, code, len(dict))
			}
			d.strs[i] = dict[code]
		}
	}

	c := &Column{name: m.Name, kind: kind, data: d, memo: new(colMemo)}
	if keepSketch {
		c.stats = &ColStats{}
		if m.SketchK > 0 {
			mins := make([]uint64, m.SketchK)
			for j := range mins {
				mins[j] = binary.LittleEndian.Uint64(buf[m.SketchOff+8*j:])
			}
			c.stats.Sketch = &sketch.MinHash{Mins: mins}
		}
	}
	return c, nil
}

// decodeDict decodes a string column's sorted dictionary and claims the
// bytes its entries use from budget.
func decodeDict(buf []byte, m columnMeta, limit int, budget *blockBudget) ([]string, error) {
	if m.DictLen == 0 {
		return nil, nil
	}
	// Each entry costs at least its one-byte length prefix, so DictLen can
	// never exceed the bytes between DictOff and the footer, nor the block
	// bytes unclaimed; checking that first also bounds the allocation below
	// against a corrupt footer.
	if m.DictLen < 0 || m.DictOff < headerSize || m.DictOff > limit || m.DictLen > limit-m.DictOff || m.DictLen > int(*budget) {
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
	return dict, budget.take(off-m.DictOff, "dictionary")
}

// ReadColumnarFile reads a columnar table file and decodes it like
// DecodeColumnar, keeping each column's persisted sketch as its Stats:
// a lake directory is trusted as the output of Pack, so a cold open
// skips re-sketching. Like ReadCSVFile, the table name is the base
// filename without its extension.
func ReadColumnarFile(path string) (*Frame, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	base := filepath.Base(path)
	return decodeColumnar(strings.TrimSuffix(base, filepath.Ext(base)), buf, true)
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
