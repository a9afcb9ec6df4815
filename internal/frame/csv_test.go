package frame

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"autofeat/internal/stats"
)

const sampleCSV = `id,name,score,active
1,alice,3.5,true
2,bob,,false
3,,4.25,true
`

func TestReadCSVInference(t *testing.T) {
	f, err := ReadCSV("t", strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumRows() != 3 || f.NumCols() != 4 {
		t.Fatalf("shape %dx%d", f.NumRows(), f.NumCols())
	}
	if f.Column("id").Kind() != Int {
		t.Fatalf("id kind = %v, want Int", f.Column("id").Kind())
	}
	if f.Column("name").Kind() != String {
		t.Fatalf("name kind = %v, want String", f.Column("name").Kind())
	}
	if f.Column("score").Kind() != Float {
		t.Fatalf("score kind = %v, want Float", f.Column("score").Kind())
	}
	if f.Column("active").Kind() != Bool {
		t.Fatalf("active kind = %v, want Bool", f.Column("active").Kind())
	}
	if f.Column("score").IsValid(1) {
		t.Fatal("empty cell must be null")
	}
	if f.Column("name").IsValid(2) {
		t.Fatal("empty string cell must be null")
	}
	if f.Column("score").Float(2) != 4.25 {
		t.Fatal("float parse wrong")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	f, err := ReadCSV("t", strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := ReadCSV("t", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Equal(g) {
		t.Fatalf("round trip changed the frame:\n%v\nvs\n%v", f, g)
	}
}

func TestCSVFileRoundTrip(t *testing.T) {
	f, _ := ReadCSV("sample", strings.NewReader(sampleCSV))
	path := filepath.Join(t.TempDir(), "sub", "sample.csv")
	if err := f.WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	g, err := ReadCSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Equal(g) {
		t.Fatal("file round trip changed the frame")
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV("t", strings.NewReader("")); err == nil {
		t.Fatal("empty stream must fail")
	}
	if _, err := ReadCSV("t", strings.NewReader("a,b\n1\n")); err == nil {
		t.Fatal("ragged row must fail")
	}
}

func TestReadCSVAllNullColumn(t *testing.T) {
	f, err := ReadCSV("t", strings.NewReader("a,b\n,1\n,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if f.Column("a").NullCount() != 2 {
		t.Fatal("all-empty column must be all null")
	}
	// All-empty column infers as Int (narrowest), which is acceptable.
	if f.Column("b").Kind() != Int {
		t.Fatal("b must infer Int")
	}
}

func TestIsNullTokenVariants(t *testing.T) {
	for _, s := range []string{"", "NA", "na", "nA", "N/A", "n/a", "null", "NULL", "Null"} {
		if !IsNullToken(s) {
			t.Errorf("%q must be a null token", s)
		}
	}
	// NaN is a representable float value, not a missing-value marker; the
	// rest are plausible real data that must survive ingestion.
	for _, s := range []string{"NaN", "nan", "None", "none", "NAs", "0", " ", "N\\A"} {
		if IsNullToken(s) {
			t.Errorf("%q must not be a null token", s)
		}
	}
}

func TestInferColumnMixedIntFloat(t *testing.T) {
	c := inferColumn("x", []string{"1", "2.5", "3"})
	if c.Kind() != Float {
		t.Fatalf("mixed int/float must infer Float, got %v", c.Kind())
	}
	c2 := inferColumn("x", []string{"1", "x"})
	if c2.Kind() != String {
		t.Fatalf("unparseable must infer String, got %v", c2.Kind())
	}
}

// FuzzReadCSV feeds arbitrary bytes to ReadCSV. Any input must either
// fail with an error or give a frame whose every cell reads without
// panicking, whose every column's DistinctCount equals the distinct
// keys its cells hold, and whose every numeric column discretises (as feature
// selection bins it) into codes in [−1, bins), −1 exactly for NaN. The
// committed corpus covers ±Inf, spans that overflow float64, nulls, a
// byte-order mark, quoting and ragged rows.
func FuzzReadCSV(f *testing.F) {
	f.Add([]byte(sampleCSV))
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := ReadCSV("fuzz", bytes.NewReader(b))
		if err != nil {
			return
		}
		for ci := 0; ci < fr.NumCols(); ci++ {
			c := fr.ColumnAt(ci)
			keys := map[string]bool{}
			for i := 0; i < c.Len(); i++ {
				c.IsValid(i)
				c.Value(i)
				c.FormatCell(i)
				if k, ok := c.Key(i); ok {
					keys[k] = true
				}
			}
			if c.DistinctCount() != len(keys) {
				t.Fatalf("column %q: DistinctCount %d, cells hold %d distinct keys", c.Name(), c.DistinctCount(), len(keys))
			}
			if !c.Kind().IsNumeric() {
				continue
			}
			vals := c.Floats()
			for _, bins := range []int{2, stats.DefaultBins} {
				for i, code := range stats.Discretize(vals, bins) {
					if code < -1 || code >= bins || (code == -1) != math.IsNaN(vals[i]) {
						t.Fatalf("column %q, bins %d: %v got code %d", c.Name(), bins, vals[i], code)
					}
				}
			}
		}
	})
}
