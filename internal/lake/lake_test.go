package lake

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"autofeat/internal/core"
	"autofeat/internal/datagen"
	"autofeat/internal/errs"
	"autofeat/internal/graph"
	"autofeat/internal/ml"
)

// writeLakeDir materialises a generated dataset as a CSV directory.
func writeLakeDir(t *testing.T) (dir string, ds *datagen.Dataset) {
	t.Helper()
	ds, err := datagen.Generate(datagen.SmallSpecs()[0])
	if err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	for _, tb := range ds.Tables {
		if err := tb.WriteCSVFile(filepath.Join(dir, tb.Name()+".csv")); err != nil {
			t.Fatal(err)
		}
	}
	return dir, ds
}

func TestOpenLoadsTablesOnce(t *testing.T) {
	dir, ds := writeLakeDir(t)
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if l.Dir() != dir {
		t.Errorf("Dir() = %q, want %q", l.Dir(), dir)
	}
	if got, want := len(l.Tables()), len(ds.Tables); got != want {
		t.Fatalf("loaded %d tables, want %d", got, want)
	}
	for _, tb := range ds.Tables {
		if l.Table(tb.Name()) == nil {
			t.Errorf("Table(%q) = nil", tb.Name())
		}
	}
	if l.Table("no-such-table") != nil {
		t.Error("Table on unknown name should be nil")
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(t.TempDir()); err == nil {
		t.Error("Open on an empty dir should fail")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.csv"), []byte("a,b\n1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir)
	if !errors.Is(err, errs.ErrBadInput) {
		t.Errorf("Open on a corrupt CSV: err = %v, want ErrBadInput", err)
	}
	l, lerrs := OpenLenient(dir)
	if len(lerrs) != 1 {
		t.Errorf("OpenLenient reported %d errors, want 1", len(lerrs))
	}
	if len(l.Tables()) != 0 {
		t.Errorf("OpenLenient kept %d tables, want 0", len(l.Tables()))
	}
}

// TestOneDRGPerLake: a lake builds its one DRG once, under the settings
// it was opened with. Concurrent first callers share the build, later
// callers get the same graph, another setting is another lake, and an
// unknown matcher or format errors.
func TestOneDRGPerLake(t *testing.T) {
	dir, ds := writeLakeDir(t)
	l := New(ds.Tables, WithThreshold(0.55))
	graphs := make([]*graph.Graph, 8)
	var wg sync.WaitGroup
	for i := range graphs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, err := l.DRG()
			if err != nil {
				t.Error(err)
			}
			graphs[i] = g
		}()
	}
	wg.Wait()
	again, err := l.DRG()
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range append(graphs, again) {
		if g != graphs[0] {
			t.Fatalf("call %d got another graph: one lake must return its one memoised DRG", i)
		}
	}
	if l.DRGBuilds() != 1 {
		t.Fatalf("%d DRG builds, want 1 under concurrent callers", l.DRGBuilds())
	}

	strict, err := New(ds.Tables, WithThreshold(0.9)).DRG()
	if err != nil {
		t.Fatal(err)
	}
	if strict == again || strict.NumEdges() > again.NumEdges() {
		t.Errorf("a stricter threshold builds its own, smaller graph: %d edges vs %d", strict.NumEdges(), again.NumEdges())
	}
	gk, err := New(ds.Tables, WithKFKs(ds.KFKs)).DRG()
	if err != nil {
		t.Fatal(err)
	}
	if gk.NumEdges() != len(ds.KFKs) {
		t.Errorf("benchmark DRG has %d edges, want %d", gk.NumEdges(), len(ds.KFKs))
	}

	bogus := New(ds.Tables, WithMatcher("bogus"))
	if _, err := bogus.DRG(); !errors.Is(err, errs.ErrBadInput) {
		t.Errorf("unknown matcher: err = %v, want ErrBadInput", err)
	}
	if _, err := Open(dir, WithMatcher("bogus")); !errors.Is(err, errs.ErrBadInput) {
		t.Errorf("Open with an unknown matcher: err = %v, want ErrBadInput", err)
	}
	if err := Check(WithFormat("parquet")); !errors.Is(err, errs.ErrBadInput) {
		t.Errorf("Check of an unknown format: err = %v, want ErrBadInput", err)
	}
	if err := Check(WithMatcher(MatcherSketched), WithFormat(FormatColumnar)); err != nil {
		t.Errorf("Check of known settings: %v", err)
	}
}

// TestDiscoverWarmMatchesCold is the session-cache correctness
// invariant: a request served by a warm Lake (memoised DRG, populated
// key-index cache) must rank bit-identically to the same request on a
// cold Lake, while the warm run's cache counters show actual reuse.
func TestDiscoverWarmMatchesCold(t *testing.T) {
	_, ds := writeLakeDir(t)
	req := Request{Base: ds.Base.Name(), Label: ds.Label}

	cold := New(ds.Tables, WithKFKs(ds.KFKs))
	first, err := cold.Discover(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.WarmGraph {
		t.Error("first request should build the DRG, not find it warm")
	}
	warm, err := cold.Discover(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmGraph {
		t.Error("second request should reuse the memoised DRG")
	}
	if warm.CacheHits <= first.CacheHits {
		t.Errorf("warm run should add key-index cache hits: first=%d warm=%d",
			first.CacheHits, warm.CacheHits)
	}

	if got, want := rankingKey(warm.Ranking), rankingKey(first.Ranking); got != want {
		t.Errorf("warm ranking diverged from cold:\nwarm: %s\ncold: %s", got, want)
	}
}

// rankingKey flattens the parts of a ranking that must be bit-identical
// across warm and cold runs.
func rankingKey(r *core.Ranking) string {
	s := fmt.Sprintf("explored=%d pruned=%d;", r.PathsExplored, r.Prune.Discarded())
	for _, p := range r.Paths {
		s += fmt.Sprintf("%s score=%.17g quality=%.17g features=%v;", p, p.Score, p.Quality, p.Features)
	}
	return s
}

func TestDiscoverValidatesModel(t *testing.T) {
	_, ds := writeLakeDir(t)
	l := New(ds.Tables, WithKFKs(ds.KFKs))
	_, err := l.Discover(context.Background(), Request{Base: ds.Base.Name(), Label: ds.Label, Model: "no-such-model"})
	if !errors.Is(err, errs.ErrBadInput) {
		t.Errorf("unknown model: err = %v, want ErrBadInput", err)
	}
}

// TestDiscoverInjectsSharedCache confirms every run against one Lake
// shares the key-index cache unless the caller supplies its own.
func TestDiscoverInjectsSharedCache(t *testing.T) {
	_, ds := writeLakeDir(t)
	l := New(ds.Tables, WithKFKs(ds.KFKs))
	if _, err := l.Discover(context.Background(), Request{Base: ds.Base.Name(), Label: ds.Label}); err != nil {
		t.Fatal(err)
	}
	hits, misses := l.CacheStats()
	if hits+misses == 0 {
		t.Error("a discovery run should touch the Lake's shared key-index cache")
	}
	if c := l.KeyCache(); c == nil {
		t.Error("KeyCache should never be nil")
	}
}

// TestAutoTuneSharesCache checks that Lake.AutoTune tries the same grid
// with the same outcomes as core.AutoTune over the Lake's DRG with a
// cold cache per run, while its runs hit the Lake's shared cache.
func TestAutoTuneSharesCache(t *testing.T) {
	_, ds := writeLakeDir(t)
	l := New(ds.Tables, WithKFKs(ds.KFKs))
	lgbm, ok := ml.FactoryByName("lightgbm")
	if !ok {
		t.Fatal("lightgbm factory missing")
	}
	taus, kappas := []float64{0.5, 0.65}, []int{10, 15}
	g, err := l.DRG()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.AutoTune(g, ds.Base.Name(), ds.Label, core.DefaultConfig(), lgbm, taus, kappas)
	if err != nil {
		t.Fatal(err)
	}
	hits0, _ := l.CacheStats()
	got, err := l.AutoTune(ds.Base.Name(), ds.Label, core.DefaultConfig(), lgbm, taus, kappas)
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := l.CacheStats(); hits <= hits0 {
		t.Errorf("cache hits %d -> %d: the grid runs should share the Lake's cache", hits0, hits)
	}
	if len(got.Tried) != len(want.Tried) {
		t.Fatalf("tried %d configurations, want %d", len(got.Tried), len(want.Tried))
	}
	for i := range want.Tried {
		wt, gt := want.Tried[i], got.Tried[i]
		wt.SelectionTime, gt.SelectionTime = 0, 0
		if wt != gt {
			t.Errorf("configuration %d: got %+v, want %+v", i, gt, wt)
		}
	}
	w, b := want.Best, got.Best
	w.SelectionTime, b.SelectionTime = 0, 0
	if w != b {
		t.Errorf("best %+v, want %+v", b, w)
	}
}
