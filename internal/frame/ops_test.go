package frame

import (
	"math"
	"strings"
	"testing"
)

func TestDescribe(t *testing.T) {
	f := sampleFrame(t)
	ds := f.Describe()
	if len(ds) != 4 {
		t.Fatalf("4 summaries, got %d", len(ds))
	}
	byName := map[string]ColumnSummary{}
	for _, s := range ds {
		byName[s.Name] = s
	}
	inc := byName["income"]
	if inc.Nulls != 1 || inc.Distinct != 5 {
		t.Fatalf("income summary wrong: %+v", inc)
	}
	if inc.Min != 10 || inc.Max != 60 {
		t.Fatalf("income min/max: %+v", inc)
	}
	city := byName["city"]
	if !math.IsNaN(city.Mean) {
		t.Fatal("string mean must be NaN")
	}
	if city.Distinct != 3 {
		t.Fatalf("city distinct = %d", city.Distinct)
	}
	str := f.DescribeString()
	if !strings.Contains(str, "income") || !strings.Contains(str, "distinct") {
		t.Fatal("DescribeString rendering broken")
	}
}
