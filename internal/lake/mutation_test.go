package lake

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"autofeat/internal/datagen"
	"autofeat/internal/errs"
	"autofeat/internal/frame"
	"autofeat/internal/graph"
	"autofeat/internal/relational"
)

func graphEdges(g *graph.Graph) map[string][]graph.Edge {
	out := map[string][]graph.Edge{}
	for _, n := range g.Nodes() {
		out[n] = g.EdgesFrom(n)
	}
	return out
}

func requireSameDRG(t *testing.T, want, got *graph.Graph, label string) {
	t.Helper()
	if !reflect.DeepEqual(want.Nodes(), got.Nodes()) {
		t.Fatalf("%s: nodes differ: %v vs %v", label, want.Nodes(), got.Nodes())
	}
	if !reflect.DeepEqual(graphEdges(want), graphEdges(got)) {
		t.Fatalf("%s: edges differ:\nwant %v\ngot  %v", label, graphEdges(want), graphEdges(got))
	}
}

func genDS(t *testing.T) *datagen.Dataset {
	t.Helper()
	ds, err := datagen.Generate(datagen.SmallSpecs()[0])
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func genTables(t *testing.T) []*frame.Frame {
	t.Helper()
	return genDS(t).Tables
}

// seedKeyIndex joins along the dataset's first KFK with the lake's
// shared cache attached, leaving a resident key index for the parent
// table's key column; it returns that column and its table name.
func seedKeyIndex(t *testing.T, l *Lake, ds *datagen.Dataset) (*frame.Column, string) {
	t.Helper()
	k := ds.KFKs[0]
	child, parent := l.Table(k.ChildTable), l.Table(k.ParentTable)
	if _, err := relational.LeftJoin(child, parent, k.ChildCol, k.ParentCol, relational.Options{Cache: l.KeyCache()}); err != nil {
		t.Fatal(err)
	}
	col := parent.Column(k.ParentCol)
	if l.KeyCache().Peek(col) == nil {
		t.Fatal("seeded key index missing")
	}
	return col, k.ParentTable
}

// TestRegisterTablePatchesWarmDRG: registering a table into a lake with
// a warm DRG must yield, without any rebuild, the same graph a fresh
// lake over the full table set builds — one lake per matcher kind.
func TestRegisterTablePatchesWarmDRG(t *testing.T) {
	tabs := genTables(t)
	for _, kind := range []MatcherKind{MatcherExact, MatcherSketched} {
		l := New(tabs[:len(tabs)-1], WithMatcher(kind))
		warmed, err := l.DRG()
		if err != nil {
			t.Fatal(err)
		}
		warmedSnapshot := graphEdges(warmed)
		if l.DRGBuilds() != 1 {
			t.Fatalf("%s: want 1 build, got %d", kind, l.DRGBuilds())
		}
		newcomer := tabs[len(tabs)-1]
		if err := l.RegisterTable(newcomer); err != nil {
			t.Fatal(err)
		}
		patched, err := l.DRG()
		if err != nil {
			t.Fatal(err)
		}
		if l.DRGBuilds() != 1 {
			t.Fatalf("%s: mutation must patch, not rebuild: %d builds", kind, l.DRGBuilds())
		}
		if l.Mutations() != 1 {
			t.Fatalf("%s: mutation counter = %d", kind, l.Mutations())
		}
		fresh := New(tabs, WithMatcher(kind))
		want, err := fresh.DRG()
		if err != nil {
			t.Fatal(err)
		}
		requireSameDRG(t, want, patched, fmt.Sprintf("%s register-patch", kind))
		if !patched.HasNode(newcomer.Name()) {
			t.Fatalf("%s: new node missing", kind)
		}
		// The pre-mutation snapshot held by an in-flight request must be
		// untouched (patch is clone-and-swap, never in-place).
		if !reflect.DeepEqual(graphEdges(warmed), warmedSnapshot) {
			t.Fatalf("%s: mutation wrote into a held graph snapshot", kind)
		}
	}
}

// TestRegisterTableCacheIdentity is the acceptance-criteria test:
// registering one table patches the DRG (build counter flat) and
// preserves the KeyIndexCache contents (same resident indexes, by
// pointer identity).
func TestRegisterTableCacheIdentity(t *testing.T) {
	dir, ds := writeLakeDir(t)
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Discover(context.Background(), Request{Base: ds.Base.Name(), Label: ds.Label}); err != nil {
		t.Fatal(err)
	}
	if l.CacheSize() == 0 {
		t.Fatal("discovery must leave resident key indexes behind")
	}
	// Discovery's sampled joins cache under randomized keys Peek cannot
	// address; seed one deterministic index so pointer identity is
	// observable alongside the size check covering every entry.
	seedKeyIndex(t, l, ds)
	sizeBefore := l.CacheSize()
	builds := l.DRGBuilds()

	resident := map[*frame.Column]map[string]int{}
	for _, tb := range l.Tables() {
		for _, c := range tb.Columns() {
			if idx := l.KeyCache().Peek(c); idx != nil {
				resident[c] = idx
			}
		}
	}
	if len(resident) == 0 {
		t.Fatal("expected to observe resident indexes via Peek")
	}

	extra := frame.New("totally_new")
	if err := extra.AddColumn(frame.NewIntColumn("x_key", []int64{900, 901, 902, 903}, nil)); err != nil {
		t.Fatal(err)
	}
	if err := l.RegisterTable(extra); err != nil {
		t.Fatal(err)
	}

	if got := l.DRGBuilds(); got != builds {
		t.Fatalf("register must not trigger DRG rebuilds: %d -> %d", builds, got)
	}
	if got := l.CacheSize(); got != sizeBefore {
		t.Fatalf("cache size changed across register: %d -> %d", sizeBefore, got)
	}
	for c, idx := range resident {
		got := l.KeyCache().Peek(c)
		if reflect.ValueOf(got).Pointer() != reflect.ValueOf(idx).Pointer() {
			t.Fatalf("resident index for %q was replaced", c.Name())
		}
	}
}

// TestReplaceTableEvictsAndPatches: replacing a table must evict its
// stale sketches and key indexes and leave the warm DRG equal to a
// fresh build over the new table set.
func TestReplaceTableEvictsAndPatches(t *testing.T) {
	ds := genDS(t)
	tabs := ds.Tables
	l := New(tabs)
	if _, err := l.DRG(); err != nil {
		t.Fatal(err)
	}
	// Seed a key index against one of the old table's columns so we can
	// watch it disappear.
	oldCol, victim := seedKeyIndex(t, l, ds)
	old := l.Table(victim)
	oldIdx := -1
	for i, tb := range tabs {
		if tb == old {
			oldIdx = i
		}
	}

	// Replacement: same name, same key column, one fewer row.
	repl := frame.New(old.Name())
	for _, c := range old.Columns() {
		keep := c.Len() - 1
		if err := repl.AddColumn(c.Take(seq(keep)).WithName(c.Name())); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.ReplaceTable(repl); err != nil {
		t.Fatal(err)
	}
	if l.KeyCache().Peek(oldCol) != nil {
		t.Fatal("old column's key index must be evicted")
	}
	if l.Table(old.Name()) != repl {
		t.Fatal("replacement not resident")
	}
	if l.DRGBuilds() != 1 {
		t.Fatalf("replace must patch, not rebuild: %d builds", l.DRGBuilds())
	}

	patched, err := l.DRG()
	if err != nil {
		t.Fatal(err)
	}
	newTabs := append([]*frame.Frame{}, tabs...)
	newTabs[oldIdx] = repl
	want, err := New(newTabs).DRG()
	if err != nil {
		t.Fatal(err)
	}
	requireSameDRG(t, want, patched, "replace-patch")
}

// TestDropTableRemovesEverywhere: dropping removes the node and its
// edges from the warm DRG, its entries from the LSH index, and its key
// indexes from the shared cache.
func TestDropTableRemovesEverywhere(t *testing.T) {
	ds := genDS(t)
	tabs := ds.Tables
	l := New(tabs)
	if _, err := l.DRG(); err != nil {
		t.Fatal(err)
	}
	vCol, victimName := seedKeyIndex(t, l, ds)
	victim := l.Table(victimName)

	if err := l.DropTable(victim.Name()); err != nil {
		t.Fatal(err)
	}
	if l.Table(victim.Name()) != nil || len(l.Tables()) != len(tabs)-1 {
		t.Fatal("table still resident after drop")
	}
	if l.KeyCache().Peek(vCol) != nil {
		t.Fatal("dropped table's key index must be evicted")
	}
	patched, err := l.DRG()
	if err != nil {
		t.Fatal(err)
	}
	if patched.HasNode(victim.Name()) {
		t.Fatal("dropped node survives in the patched DRG")
	}
	var remaining []*frame.Frame
	for _, tb := range tabs {
		if tb.Name() != victim.Name() {
			remaining = append(remaining, tb)
		}
	}
	want, err := New(remaining).DRG()
	if err != nil {
		t.Fatal(err)
	}
	requireSameDRG(t, want, patched, "drop-patch")
	if ix := l.IndexStats(); ix.Built && ix.Tables != len(remaining) {
		t.Fatalf("LSH index still tracks %d tables, want %d", ix.Tables, len(remaining))
	}
}

func TestMutationValidation(t *testing.T) {
	tabs := genTables(t)
	l := New(tabs)
	if err := l.RegisterTable(tabs[0]); !errors.Is(err, errs.ErrBadInput) {
		t.Fatalf("duplicate register: %v", err)
	}
	ghost := frame.New("ghost")
	if err := l.ReplaceTable(ghost); !errors.Is(err, errs.ErrBadInput) {
		t.Fatalf("replace of unknown table: %v", err)
	}
	if err := l.DropTable("ghost"); !errors.Is(err, errs.ErrBadInput) {
		t.Fatalf("drop of unknown table: %v", err)
	}
	if err := l.RegisterTable(nil); !errors.Is(err, errs.ErrBadInput) {
		t.Fatalf("nil register: %v", err)
	}
	if err := l.RegisterTable(frame.New("")); !errors.Is(err, errs.ErrBadInput) {
		t.Fatalf("unnamed register: %v", err)
	}
	if l.Mutations() != 0 {
		t.Fatalf("rejected mutations must not count: %d", l.Mutations())
	}
}

// TestConcurrentDiscoverAndMutation exercises the runMu discipline
// under -race: DRG readers, mutators and introspection all at once.
func TestConcurrentDiscoverAndMutation(t *testing.T) {
	tabs := genTables(t)
	l := New(tabs[:len(tabs)-1])
	spare := tabs[len(tabs)-1]
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := l.DRG(); err != nil {
					t.Error(err)
					return
				}
				_ = l.IndexStats()
				_ = l.Tables()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := l.RegisterTable(spare); err != nil {
				t.Error(err)
				return
			}
			if err := l.DropTable(spare.Name()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	want, err := New(tabs[:len(tabs)-1]).DRG()
	if err != nil {
		t.Fatal(err)
	}
	got, err := l.DRG()
	if err != nil {
		t.Fatal(err)
	}
	requireSameDRG(t, want, got, "post-concurrency")
}

// seq returns [0, 1, ..., n-1] for Column.Take.
func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
