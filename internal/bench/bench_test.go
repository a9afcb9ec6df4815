package bench

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"autofeat/internal/datagen"
	"autofeat/internal/discovery"
	"autofeat/internal/graph"
	"autofeat/internal/ml"
)

func smallRunner() *Runner { return NewRunner(datagen.SmallSpecs(), 7) }

func TestReportRendering(t *testing.T) {
	r := &Report{
		ID:     "x",
		Title:  "demo",
		Header: []string{"a", "bee"},
		Notes:  []string{"a note"},
	}
	r.AddRow("long-cell", 0.5)
	r.AddRow(3, 2*time.Second)
	s := r.String()
	for _, want := range []string{"=== x: demo ===", "long-cell", "0.5000", "2s", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}

func TestTableI(t *testing.T) {
	r := TableI()
	if len(r.Rows) != 3 {
		t.Fatalf("Table I compares 3 methods, got %d", len(r.Rows))
	}
	if r.Rows[2][0] != "AutoFeat" || r.Rows[2][2] != "Ranking-based" {
		t.Fatalf("AutoFeat row wrong: %v", r.Rows[2])
	}
}

func TestTableII(t *testing.T) {
	r := smallRunner()
	rep, err := r.TableII()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	if rep.Rows[0][0] != "tiny" || rep.Rows[0][1] != "400" {
		t.Fatalf("tiny row wrong: %v", rep.Rows[0])
	}
}

func TestRunnerCaching(t *testing.T) {
	r := smallRunner()
	d1, err := r.Dataset("tiny")
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := r.Dataset("tiny")
	if d1 != d2 {
		t.Fatal("datasets must be cached")
	}
	g1, err := r.DRG("tiny", Benchmark)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := r.DRG("tiny", Benchmark)
	if g1 != g2 {
		t.Fatal("DRGs must be cached")
	}
	gl, err := r.DRG("tiny", Lake)
	if err != nil {
		t.Fatal(err)
	}
	if gl == g1 {
		t.Fatal("settings must have distinct graphs")
	}
	if _, err := r.Dataset("ghost"); err == nil {
		t.Fatal("unknown dataset must fail")
	}
	// The lake-built graphs equal the reference builds edge for edge,
	// in the same per-node order.
	for _, spec := range datagen.SmallSpecs() {
		d, err := r.Dataset(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			s    Setting
			want func() (*graph.Graph, error)
		}{
			{Lake, func() (*graph.Graph, error) {
				return discovery.DiscoverDRGQuadratic(d.Tables, LakeThreshold, discovery.NewMatcher())
			}},
			{Benchmark, func() (*graph.Graph, error) { return discovery.BuildBenchmarkDRG(d.Tables, d.KFKs) }},
		} {
			got, err := r.DRG(spec.Name, tc.s)
			if err != nil {
				t.Fatal(err)
			}
			want, err := tc.want()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Nodes(), want.Nodes()) {
				t.Fatalf("%s/%s: nodes %v, want %v", spec.Name, tc.s, got.Nodes(), want.Nodes())
			}
			for _, n := range want.Nodes() {
				if !reflect.DeepEqual(got.EdgesFrom(n), want.EdgesFrom(n)) {
					t.Fatalf("%s/%s: edges of %s:\n got %v\nwant %v", spec.Name, tc.s, n, got.EdgesFrom(n), want.EdgesFrom(n))
				}
			}
		}
	}
}

// TestRunnerZeroBudgetKeepsDefault checks that a Runner without a join
// budget runs its discoveries under the config's default cap of 3000,
// and that a positive budget replaces it.
func TestRunnerZeroBudgetKeepsDefault(t *testing.T) {
	r := smallRunner()
	for _, tc := range []struct{ budget, want int }{{0, 3000}, {5, 5}} {
		r.MaxEvalJoins = tc.budget
		e, err := r.autofeatRanking("tiny", Benchmark, DefaultAutoFeatConfig(r.Seed))
		if err != nil {
			t.Fatal(err)
		}
		if got := e.disc.Manifest(e.ranking).Config.MaxEvalJoins; got != tc.want {
			t.Fatalf("Runner.MaxEvalJoins = %d: discovery ran with MaxEvalJoins %d, want %d", tc.budget, got, tc.want)
		}
	}
}

func TestRunMethodAllMethods(t *testing.T) {
	r := smallRunner()
	lgbm, _ := ml.FactoryByName("lightgbm")
	for _, method := range []string{"base", "arda", "mab", "joinall", "joinall+f", "autofeat"} {
		mr, err := r.RunMethod("tiny", Benchmark, method, lgbm)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if mr.Method != method || mr.Dataset != "tiny" || mr.Model != "lightgbm" {
			t.Fatalf("%s: metadata wrong: %+v", method, mr)
		}
		if mr.Accuracy <= 0 || mr.Accuracy > 1 {
			t.Fatalf("%s: accuracy %v out of range", method, mr.Accuracy)
		}
	}
	if _, err := r.RunMethod("tiny", Benchmark, "nope", lgbm); err == nil {
		t.Fatal("unknown method must fail")
	}
}

func TestAutoFeatBeatsBaseOnSmallLake(t *testing.T) {
	r := smallRunner()
	lgbm, _ := ml.FactoryByName("lightgbm")
	af, err := r.RunMethod("smol", Benchmark, "autofeat", lgbm)
	if err != nil {
		t.Fatal(err)
	}
	base, err := r.RunMethod("smol", Benchmark, "base", lgbm)
	if err != nil {
		t.Fatal(err)
	}
	if af.Accuracy < base.Accuracy {
		t.Fatalf("autofeat (%.3f) must be >= base (%.3f)", af.Accuracy, base.Accuracy)
	}
}

func TestSweepCachesAndSkips(t *testing.T) {
	r := NewRunner(append(datagen.SmallSpecs(), datagen.Spec{
		Name: "school", Rows: 300, PaperRows: 300, JoinableTables: 4,
		TotalFeatures: 12, PaperFeatures: 12, BestAccuracy: 0.8, Seed: 300,
	}), 7)
	lgbm, _ := ml.FactoryByName("lightgbm")
	res, err := r.Sweep(Benchmark, []string{"base", "joinall"}, []ml.Factory{lgbm})
	if err != nil {
		t.Fatal(err)
	}
	for _, mr := range res {
		if mr.Dataset == "school" && mr.Method == "joinall" {
			t.Fatal("joinall must be skipped on school (paper presentation)")
		}
	}
	res2, err := r.Sweep(Benchmark, []string{"base", "joinall"}, []ml.Factory{lgbm})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2) != len(res) {
		t.Fatal("sweep must be cached")
	}
}

func TestFigure3Reports(t *testing.T) {
	r := smallRunner()
	a, err := r.Figure3a()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 5 {
		t.Fatalf("figure 3a compares 5 relevance metrics: %d", len(a.Rows))
	}
	b, err := r.Figure3b()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Rows) != 5 {
		t.Fatalf("figure 3b compares 5 redundancy metrics: %d", len(b.Rows))
	}
}

func TestFigure8Reports(t *testing.T) {
	r := smallRunner()
	reps, err := r.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	// Small specs lack covertype/school, so only 8a and 8b appear.
	if len(reps) != 2 {
		t.Fatalf("want kappa + tau reports, got %d", len(reps))
	}
	if len(reps[0].Rows) != 7 {
		t.Fatalf("kappa sweep has 7 points: %d", len(reps[0].Rows))
	}
	if len(reps[1].Rows) != 20 {
		t.Fatalf("tau sweep has 20 points: %d", len(reps[1].Rows))
	}
}

func TestFigure9Report(t *testing.T) {
	r := smallRunner()
	rep, err := r.Figure9()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2*6 {
		t.Fatalf("2 datasets x 6 variants = 12 rows, got %d", len(rep.Rows))
	}
}

func TestAblationReports(t *testing.T) {
	r := smallRunner()
	if rep, err := r.AblationTraversal(); err != nil || len(rep.Rows) == 0 {
		t.Fatalf("traversal: %v", err)
	}
	if rep, err := r.AblationCardinality(); err != nil || len(rep.Rows) == 0 {
		t.Fatalf("cardinality: %v", err)
	}
	if rep, err := r.AblationBins(); err != nil || len(rep.Rows) != 3 {
		t.Fatalf("bins: %v", err)
	}
}

func TestAblationCardinalityShowsDrift(t *testing.T) {
	r := smallRunner()
	rep, err := r.AblationCardinality()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		if row[1] != row[2] {
			t.Fatalf("normalised join must preserve rows: %v", row)
		}
		if row[2] == row[3] {
			t.Fatalf("duplicating join must inflate rows: %v", row)
		}
	}
}

func TestSettingString(t *testing.T) {
	if Benchmark.String() != "benchmark" || Lake.String() != "lake" {
		t.Fatal("setting names")
	}
}
