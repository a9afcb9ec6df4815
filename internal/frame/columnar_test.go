package frame

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"autofeat/internal/sketch"
)

// mixedFrame builds a table exercising every kind and null placement.
func mixedFrame(name string) *Frame {
	f := New(name)
	f.AddColumn(NewIntColumn("id", []int64{1, 2, 3, 4, 5}, nil))
	f.AddColumn(NewFloatColumn("score", []float64{0.5, math.NaN(), -3.25, 1e18, 0},
		[]bool{true, true, true, true, false}))
	f.AddColumn(NewStringColumn("city", []string{"oslo", "", "lima", "oslo", "quito"},
		[]bool{true, false, true, true, true}))
	f.AddColumn(NewBoolColumn("flag", []bool{true, false, true, false, true},
		[]bool{true, true, false, true, true}))
	return f
}

func TestColumnarRoundTrip(t *testing.T) {
	src := mixedFrame("trip")
	b, err := EncodeColumnar(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeColumnar("trip", b)
	if err != nil {
		t.Fatal(err)
	}
	if !src.Equal(got) {
		t.Fatal("decoded frame differs from source")
	}
	// Cell-by-cell including null positions (Equal also checks them, but
	// the bitmap bits are the round-trip's riskiest part — assert
	// directly).
	for ci := 0; ci < src.NumCols(); ci++ {
		cs, cg := src.ColumnAt(ci), got.ColumnAt(ci)
		for i := 0; i < cs.Len(); i++ {
			if cs.IsValid(i) != cg.IsValid(i) {
				t.Fatalf("col %q row %d: null bit differs", cs.Name(), i)
			}
			ks, oks := cs.Key(i)
			kg, okg := cg.Key(i)
			if ks != kg || oks != okg {
				t.Fatalf("col %q row %d: key %q/%v vs %q/%v", cs.Name(), i, ks, oks, kg, okg)
			}
		}
	}
}

// TestColumnarStatsMatchRecomputation pins the columnar contract: the
// persisted sketch a lake file read keeps must be exactly what a fresh
// scan would produce, so discovery can serve from it, and the counts a
// decoded column reports (read from its cells) equal its source's.
// Uploaded bytes keep no sketch at all.
func TestColumnarStatsMatchRecomputation(t *testing.T) {
	src := mixedFrame("stats")
	b, err := EncodeColumnar(src)
	if err != nil {
		t.Fatal(err)
	}
	up, err := DecodeColumnar("stats", b)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range up.Columns() {
		if c.Stats() != nil {
			t.Fatalf("col %q: DecodeColumnar kept the persisted stats of untrusted bytes", c.Name())
		}
	}
	got, err := decodeColumnar("stats", b, true)
	if err != nil {
		t.Fatal(err)
	}
	for ci := 0; ci < src.NumCols(); ci++ {
		cs, cg := src.ColumnAt(ci), got.ColumnAt(ci)
		st := cg.Stats()
		if st == nil {
			t.Fatalf("col %q: no persisted stats", cg.Name())
		}
		if cg.DistinctCount() != cs.DistinctCount() {
			t.Errorf("col %q: decoded distinct %d, source %d", cg.Name(), cg.DistinctCount(), cs.DistinctCount())
		}
		if cg.NullCount() != cs.NullCount() {
			t.Errorf("col %q: decoded nulls %d, source %d", cg.Name(), cg.NullCount(), cs.NullCount())
		}
		if st.Sketch == nil {
			t.Fatalf("col %q: no persisted sketch", cg.Name())
		}
		// Recompute the signature the way discovery.Sketch does and
		// require bit-identity.
		fresh := sketch.New(sketch.DefaultSize)
		seen := make(map[string]struct{})
		for i := 0; i < cs.Len(); i++ {
			if k, ok := cs.Key(i); ok {
				if _, dup := seen[k]; !dup {
					seen[k] = struct{}{}
					fresh.AddHash(sketch.Hash64(k))
				}
			}
		}
		for j := range fresh.Mins {
			if st.Sketch.Mins[j] != fresh.Mins[j] {
				t.Fatalf("col %q: persisted sketch slot %d differs from fresh computation", cg.Name(), j)
			}
		}
		if cg.DistinctCount() != len(seen) {
			t.Errorf("col %q: DistinctCount %d, want %d", cg.Name(), cg.DistinctCount(), len(seen))
		}
	}
	if got.Column("city").DistinctCount() != 3 {
		t.Errorf("columnar DistinctCount = %d, want 3", got.Column("city").DistinctCount())
	}
}

func TestColumnarVersionExactMatch(t *testing.T) {
	b, err := EncodeColumnar(mixedFrame("v"))
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), b...)
	bad[len(FormatMagic)] = FormatVersion + 1
	if _, err := DecodeColumnar("v", bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version must be rejected by exact match, got %v", err)
	}
	// A version bump in the trailer alone means a torn write.
	bad2 := append([]byte(nil), b...)
	bad2[len(bad2)-len(FormatMagic)-1] = FormatVersion + 1
	if _, err := DecodeColumnar("v", bad2); err == nil {
		t.Fatal("trailer version mismatch must be rejected")
	}
}

func TestColumnarCorruptInputs(t *testing.T) {
	b, err := EncodeColumnar(mixedFrame("c"))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":      {},
		"short":      b[:8],
		"bad magic":  append([]byte("NOPE"), b[4:]...),
		"truncated":  b[:len(b)-3],
		"footer cut": b[:len(b)-trailerSize],
	}
	for name, buf := range cases {
		if _, err := DecodeColumnar(name, buf); err == nil {
			t.Errorf("%s: corrupt buffer decoded without error", name)
		}
	}
}

// craftColumnar assembles a columnar buffer from raw block bytes and a
// hand-written footer, so tests can express footers no writer would emit.
func craftColumnar(payload []byte, footerJSON string) []byte {
	var b []byte
	b = append(b, FormatMagic...)
	b = append(b, FormatVersion)
	b = append(b, payload...)
	b = append(b, footerJSON...)
	var tr [4]byte
	binary.LittleEndian.PutUint32(tr[:], uint32(len(footerJSON)))
	b = append(b, tr[:]...)
	b = append(b, FormatVersion)
	b = append(b, FormatMagic...)
	return b
}

// rewriteFooter re-encodes the footer of the columnar buffer b through
// edit and keeps every block, so tests can make a well-formed file lie.
func rewriteFooter(t *testing.T, b []byte, edit func(*fileFooter)) []byte {
	t.Helper()
	flen := int(binary.LittleEndian.Uint32(b[len(b)-trailerSize:]))
	fstart := len(b) - trailerSize - flen
	var footer fileFooter
	if err := json.Unmarshal(b[fstart:fstart+flen], &footer); err != nil {
		t.Fatal(err)
	}
	edit(&footer)
	fb, err := json.Marshal(footer)
	if err != nil {
		t.Fatal(err)
	}
	return craftColumnar(b[headerSize:fstart], string(fb))
}

// distinctLieColumnar is a well-formed file whose footer claims
// "distinct":0 for an int column holding 6 distinct keys.
func distinctLieColumnar(t *testing.T) []byte {
	f := New("lie")
	f.AddColumn(NewIntColumn("k", []int64{1, 2, 3, 4, 5, 6, 6, 1}, nil))
	b, err := EncodeColumnar(f)
	if err != nil {
		t.Fatal(err)
	}
	return rewriteFooter(t, b, func(ft *fileFooter) { ft.Columns[0].Distinct = 0 })
}

// sharedBlockColumnar assembles a file of one row whose cols float
// columns all name the same value block and the same sketch block of k
// slots. EncodeColumnar would lay out cols of each, so the file is about
// cols times smaller than what a decoder honouring it would allocate.
func sharedBlockColumnar(cols, k int) []byte {
	meta := make([]string, cols)
	for i := range meta {
		meta[i] = fmt.Sprintf(`{"name":"c%d","kind":"float","valid_off":-1,"data_off":5,"sketch_off":13,"sketch_k":%d}`, i, k)
	}
	return craftColumnar(make([]byte, 8+8*k), `{"rows":1,"columns":[`+strings.Join(meta, ",")+`]}`)
}

// TestColumnarMaliciousFooter pins the decoder against hostile footers:
// serve feeds uploaded bytes straight to DecodeColumnar, so every case here
// must return an error — never panic, and never a frame claiming absurd
// shape.
func TestColumnarMaliciousFooter(t *testing.T) {
	hugeLen := make([]byte, binary.MaxVarintLen64)
	hugeLen = hugeLen[:binary.PutUvarint(hugeLen, math.MaxUint64)]
	smallDict := append([]byte{1, 'a'}, 0, 0, 0, 5) // dict ["a"], then code 5 for row 0

	cases := map[string][]byte{
		// rows*8 used to wrap negative and pass the bounds check, yielding
		// a frame reporting 2^61 rows that panics on first iteration.
		"huge row count": craftColumnar(make([]byte, 16),
			`{"rows":2305843009213693952,"columns":[{"name":"x","kind":"int","valid_off":-1,"data_off":5,"sketch_off":5,"sketch_k":0}]}`),
		"negative row count": craftColumnar(make([]byte, 16),
			`{"rows":-1,"columns":[{"name":"x","kind":"int","valid_off":-1,"data_off":5,"sketch_off":5,"sketch_k":0}]}`),
		"negative data off": craftColumnar(make([]byte, 16),
			`{"rows":1,"columns":[{"name":"x","kind":"int","valid_off":-1,"data_off":-8,"sketch_off":5,"sketch_k":0}]}`),
		// A dictionary entry length near 2^64 used to wrap negative through
		// int conversion and panic on the slice expression.
		"huge dict entry length": craftColumnar(hugeLen,
			`{"rows":0,"columns":[{"name":"s","kind":"string","valid_off":-1,"dict_off":5,"dict_len":1,"data_off":5,"sketch_off":5,"sketch_k":0}]}`),
		"negative dict off": craftColumnar(make([]byte, 16),
			`{"rows":0,"columns":[{"name":"s","kind":"string","valid_off":-1,"dict_off":-4,"dict_len":1,"data_off":5,"sketch_off":5,"sketch_k":0}]}`),
		// DictLen far beyond the file must fail before the allocation it
		// sizes, not during entry decoding.
		"huge dict len": craftColumnar(make([]byte, 16),
			`{"rows":0,"columns":[{"name":"s","kind":"string","valid_off":-1,"dict_off":5,"dict_len":1099511627776,"data_off":5,"sketch_off":5,"sketch_k":0}]}`),
		// A valid row whose code exceeds the dictionary must fail the open,
		// not read as "".
		"code out of range": craftColumnar(smallDict,
			`{"rows":1,"columns":[{"name":"s","kind":"string","valid_off":-1,"dict_off":5,"dict_len":1,"data_off":7,"sketch_off":5,"sketch_k":0}]}`),
		// Blocks claimed by several columns would be decoded once per
		// claim (see TestColumnarSharedBlocksBoundAllocation).
		"shared blocks": sharedBlockColumnar(8, 16),
		// A null count the bitmap does not bear out: bits 4-7 are unset,
		// so NullCount would read 0 over 4 nulls and imputation would
		// skip them.
		"nulls disagree": craftColumnar(append([]byte{0x0f}, make([]byte, 64)...),
			`{"rows":8,"columns":[{"name":"x","kind":"int","nulls":0,"valid_off":5,"data_off":6,"sketch_off":70,"sketch_k":0}]}`),
	}
	for name, buf := range cases {
		f, err := DecodeColumnar(name, buf)
		if err == nil {
			t.Errorf("%s: hostile footer decoded without error (frame reports %d rows)", name, f.NumRows())
		}
	}

	// A footer can also lie without breaking any bound. A distinct count
	// of 0 over 6 keys would make the matcher skip the column, so the
	// count must come from the cells.
	f, err := DecodeColumnar("distinct lie", distinctLieColumnar(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Column("k").DistinctCount(); got != 6 {
		t.Fatalf("distinct lie: DistinctCount = %d, want the 6 keys the cells hold", got)
	}
}

// TestColumnarSharedBlocksBoundAllocation decodes a 1 MiB file whose 100
// columns all name one 1 MiB sketch block and one value block. Decoding
// each claim would allocate about 100 times the file; the decoder must
// reject it having allocated a small multiple of it at most.
func TestColumnarSharedBlocksBoundAllocation(t *testing.T) {
	buf := sharedBlockColumnar(100, 1<<17)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeColumnar("shared", buf)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("columns sharing one block decoded without error")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4*uint64(len(buf)) {
		t.Fatalf("decoding a %d-byte file allocated %d bytes", len(buf), alloc)
	}
}

// FuzzDecodeColumnar feeds arbitrary bytes to DecodeColumnar, the path
// an uploaded .afc table takes. No input may panic: it either errors, or
// every cell of the decoded frame reads through IsValid, Value and (for
// non-string columns) Floats, its NullCount equals the nulls its cells
// hold, its DistinctCount equals the distinct keys its cells hold, and it
// survives EncodeColumnar and a second decode as an Equal frame. The
// committed corpus seeds one encoded mixedFrame and the
// TestColumnarMaliciousFooter shapes.
func FuzzDecodeColumnar(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := DecodeColumnar("fuzz", b)
		if err != nil {
			return
		}
		for ci := 0; ci < fr.NumCols(); ci++ {
			c := fr.ColumnAt(ci)
			nulls := 0
			keys := map[string]bool{}
			for i := 0; i < c.Len(); i++ {
				if !c.IsValid(i) {
					nulls++
				}
				if k, ok := c.Key(i); ok {
					keys[k] = true
				}
				c.Value(i)
			}
			if c.NullCount() != nulls {
				t.Fatalf("column %q: NullCount %d, cells hold %d nulls", c.Name(), c.NullCount(), nulls)
			}
			if c.DistinctCount() != len(keys) {
				t.Fatalf("column %q: DistinctCount %d, cells hold %d distinct keys", c.Name(), c.DistinctCount(), len(keys))
			}
			if c.Kind() != String {
				c.Floats()
			}
		}
		enc, err := EncodeColumnar(fr)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := DecodeColumnar("fuzz", enc)
		if err != nil {
			t.Fatalf("decode of re-encoded frame: %v", err)
		}
		if !fr.Equal(again) {
			t.Fatal("frame changed through EncodeColumnar and DecodeColumnar")
		}
	})
}

func TestColumnarAllNullStringColumn(t *testing.T) {
	f := New("nulls")
	f.AddColumn(NewStringColumn("s", []string{"", ""}, []bool{false, false}))
	b, err := EncodeColumnar(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeColumnar("nulls", b)
	if err != nil {
		t.Fatal(err)
	}
	c := got.Column("s")
	// The dictionary is empty; reading through Take (which fetches values
	// before validity) must not panic.
	taken := c.Take([]int{1, 0, -1})
	if taken.NullCount() != 3 {
		t.Fatalf("all-null take has %d nulls, want 3", taken.NullCount())
	}
	if c.DistinctCount() != 0 {
		t.Fatalf("all-null distinct = %d", c.DistinctCount())
	}
}

func TestWriteColumnarFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src := mixedFrame("tbl")
	path := filepath.Join(dir, "tbl"+FormatExt)
	if err := WriteColumnarFile(src, path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadColumnarFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != "tbl" {
		t.Fatalf("table name %q, want tbl (from filename)", got.Name())
	}
	if !src.Equal(got) {
		t.Fatal("file round trip differs")
	}
	// No temp droppings from the atomic write.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".afc-tmp-") {
			t.Fatalf("leftover temp file %q", e.Name())
		}
	}
}

// TestColumnarCSVRoundTripProperty is the pack round-trip property test:
// CSV text → frame → columnar bytes → frame must preserve every cell and
// every null bit, for tables mixing all kinds, null tokens and a BOM.
func TestColumnarCSVRoundTripProperty(t *testing.T) {
	csvText := "\ufeffid,score,city,flag\n" +
		"1,0.5,oslo,true\n" +
		"2,NA,,false\n" +
		"null,2.25,lima,null\n" +
		"4,-1,oslo,true\n"
	f, err := ReadCSV("t", strings.NewReader(csvText))
	if err != nil {
		t.Fatal(err)
	}
	if f.ColumnNames()[0] != "id" {
		t.Fatalf("BOM not stripped: first column %q", f.ColumnNames()[0])
	}
	if got := f.Column("id").NullCount(); got != 1 {
		t.Fatalf("null token \"null\" not null in int column: %d nulls", got)
	}
	if got := f.Column("score").NullCount(); got != 1 {
		t.Fatalf("null token NA not null in float column: %d nulls", got)
	}
	b, err := EncodeColumnar(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeColumnar("t", b)
	if err != nil {
		t.Fatal(err)
	}
	for ci := 0; ci < f.NumCols(); ci++ {
		cs, cg := f.ColumnAt(ci), got.ColumnAt(ci)
		for i := 0; i < cs.Len(); i++ {
			if cs.IsValid(i) != cg.IsValid(i) {
				t.Fatalf("col %q row %d: null bitmap disagrees between CSV and columnar files", cs.Name(), i)
			}
			if av, gv := cs.Value(i), cg.Value(i); av != gv {
				t.Fatalf("col %q row %d: %v != %v", cs.Name(), i, av, gv)
			}
		}
	}
}

// TestColumnarFloatsAndValueSetMatchSource pins the reads selection and
// matching make: a decoded column's Floats and ValueSet equal its
// source's.
func TestColumnarFloatsAndValueSetMatchSource(t *testing.T) {
	src := mixedFrame("view")
	b, _ := EncodeColumnar(src)
	got, err := DecodeColumnar("view", b)
	if err != nil {
		t.Fatal(err)
	}
	for ci := 0; ci < src.NumCols(); ci++ {
		mem, dec := src.ColumnAt(ci), got.ColumnAt(ci)
		if mem.Len() != dec.Len() || mem.Kind() != dec.Kind() {
			t.Fatal("column shape differs after decoding")
		}
		mn, cn := mem.Floats(), dec.Floats()
		for i := range mn {
			if mn[i] != cn[i] && !(math.IsNaN(mn[i]) && math.IsNaN(cn[i])) {
				t.Fatalf("col %q Floats()[%d]: %v vs %v", mem.Name(), i, mn[i], cn[i])
			}
		}
		ms, cs := mem.ValueSet(), dec.ValueSet()
		if len(ms) != len(cs) {
			t.Fatalf("col %q value sets differ", mem.Name())
		}
		for k := range ms {
			if _, ok := cs[k]; !ok {
				t.Fatalf("col %q key %q missing from columnar value set", mem.Name(), k)
			}
		}
	}
}
