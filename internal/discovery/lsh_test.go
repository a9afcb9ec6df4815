package discovery

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"autofeat/internal/frame"
	"autofeat/internal/graph"
)

// randomLake builds a seeded lake whose tables draw key columns from a
// handful of shared value pools, so some cross-table pairs overlap
// heavily (edges), some weakly (near-threshold) and some not at all.
func randomLake(t *testing.T, seed int64, nTables int) []*frame.Frame {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	names := []string{"user_id", "uid", "customer_id", "cust_id", "order_id", "item_code", "zone", "key"}
	tabs := make([]*frame.Frame, 0, nTables)
	for i := 0; i < nTables; i++ {
		f := frame.New(fmt.Sprintf("t%02d", i))
		ncols := 1 + rng.Intn(3)
		n := 10 + rng.Intn(60)
		for c := 0; c < ncols; c++ {
			name := names[rng.Intn(len(names))]
			for f.Column(name) != nil {
				name = fmt.Sprintf("%s_%d", name, rng.Intn(100))
			}
			pool := rng.Intn(4)
			vals := make([]int64, n)
			for j := range vals {
				vals[j] = int64(pool*500 + rng.Intn(120))
			}
			addCol(t, f, intCol(name, vals...))
		}
		tabs = append(tabs, f)
	}
	return tabs
}

// flatEdges renders a graph as its deterministic per-node adjacency so
// two graphs can be compared for edge identity (same edges, same
// weights, same order).
func flatEdges(g *graph.Graph) []graph.Edge {
	var out []graph.Edge
	for _, n := range g.Nodes() {
		out = append(out, g.EdgesFrom(n)...)
	}
	return out
}

func requireSameGraph(t *testing.T, want, got *graph.Graph, label string) {
	t.Helper()
	if !reflect.DeepEqual(want.Nodes(), got.Nodes()) {
		t.Fatalf("%s: node sets differ: %v vs %v", label, want.Nodes(), got.Nodes())
	}
	we, ge := flatEdges(want), flatEdges(got)
	if !reflect.DeepEqual(we, ge) {
		t.Fatalf("%s: edges differ:\nquadratic: %v\nindexed:   %v", label, we, ge)
	}
}

// TestIndexedEdgeIdentity is the tentpole's core guarantee: for both the
// exact and the sketched matcher, the LSH-indexed DRG build produces a
// graph edge-identical to the quadratic build across seeded random
// lakes.
func TestIndexedEdgeIdentity(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		tabs := randomLake(t, seed, 12)
		for _, tc := range []struct {
			name string
			s    Scorer
		}{
			{"exact", NewMatcher()},
			{"sketched", NewSketchMatcher()},
		} {
			quad, err := DiscoverDRGQuadratic(tabs, 0.55, tc.s)
			if err != nil {
				t.Fatal(err)
			}
			idx := NewLSHIndex(0, -1)
			if !idx.CoversScorer(0.55, tc.s) {
				t.Fatalf("seed %d %s: default index must cover the default scorer", seed, tc.name)
			}
			for _, f := range tabs {
				idx.Add(f)
			}
			ixg, err := DiscoverDRGIndexed(tabs, 0.55, tc.s, idx)
			if err != nil {
				t.Fatal(err)
			}
			requireSameGraph(t, quad, ixg, fmt.Sprintf("seed %d %s", seed, tc.name))
		}
	}
}

// TestCandidateSupersetProperty checks the covering guarantee directly:
// at default weights and threshold, every cross-table column pair whose
// real score clears the threshold must appear in the index's candidate
// enumeration.
func TestCandidateSupersetProperty(t *testing.T) {
	for seed := int64(20); seed < 28; seed++ {
		tabs := randomLake(t, seed, 10)
		for _, tc := range []struct {
			name string
			s    Scorer
		}{
			{"exact", NewMatcher()},
			{"sketched", NewSketchMatcher()},
		} {
			idx := NewLSHIndex(0, -1)
			for _, f := range tabs {
				idx.Add(f)
			}
			type key struct{ ta, ca, tb, cb string }
			cands := map[key]bool{}
			for _, p := range idx.AllCandidates() {
				cands[key{p.TableA, p.ColA.Name(), p.TableB, p.ColB.Name()}] = true
				cands[key{p.TableB, p.ColB.Name(), p.TableA, p.ColA.Name()}] = true
			}
			for i, a := range tabs {
				for j, b := range tabs {
					if i >= j {
						continue
					}
					for _, ca := range a.Columns() {
						for _, cb := range b.Columns() {
							score := tc.s.MatchColumns(ca, cb)
							if score < 0.55 {
								continue
							}
							k := key{a.Name(), ca.Name(), b.Name(), cb.Name()}
							if !cands[k] {
								t.Fatalf("seed %d %s: edge-forming pair %v.%v ~ %v.%v (score %.3f) missing from candidates",
									seed, tc.name, k.ta, k.ca, k.tb, k.cb, score)
							}
						}
					}
				}
			}
		}
	}
}

func TestPlanBands(t *testing.T) {
	// Default configuration: τ=0.55, weights 0.4/0.6 → instMin=0.25>0,
	// so banding is derivable and must be rows=1 (Lazo containment
	// rescaling can lift arbitrarily small estimated Jaccard above the
	// floor, so only single-row bands preserve the superset guarantee).
	bands, rows, ok := PlanBands(DefaultSketchSize, 0.55, 0.4, 0.6)
	if !ok || rows != 1 || bands != DefaultSketchSize {
		t.Fatalf("default plan: got bands=%d rows=%d ok=%v", bands, rows, ok)
	}
	cases := []struct {
		k              int
		tau, nameW, iw float64
	}{
		{DefaultSketchSize, 0.40, 0.4, 0.6}, // τ(wn+wi) == wn → instMin == 0
		{DefaultSketchSize, 0.30, 0.4, 0.6}, // name evidence alone can form edges
		{DefaultSketchSize, 0.55, 0.4, 0},   // no instance weight
		{DefaultSketchSize, 0.55, 0, 0},     // degenerate scorer
		{0, 0.55, 0.4, 0.6},                 // no signature slots
	}
	for _, c := range cases {
		if _, _, ok := PlanBands(c.k, c.tau, c.nameW, c.iw); ok {
			t.Fatalf("PlanBands(%d, %v, %v, %v) must refuse coverage", c.k, c.tau, c.nameW, c.iw)
		}
	}
}

// fakeScorer is an unknown Scorer implementation: the index must refuse
// coverage so discovery falls back to the always-correct quadratic path.
type fakeScorer struct{}

func (fakeScorer) MatchColumns(a, b *frame.Column) float64 { return 1 }
func (fakeScorer) Weights() (float64, float64)             { return 0.4, 0.6 }

func TestCoversScorerRules(t *testing.T) {
	idx := NewLSHIndex(DefaultSketchSize, 100)
	if idx.CoversScorer(0.55, fakeScorer{}) {
		t.Fatal("unknown scorer implementations must not be covered")
	}
	if !idx.CoversScorer(0.55, &Matcher{NameWeight: 0.4, InstanceWeight: 0.6, MaxValues: 100}) {
		t.Fatal("exact matcher with cap <= anchor cap must be covered")
	}
	if idx.CoversScorer(0.55, &Matcher{NameWeight: 0.4, InstanceWeight: 0.6, MaxValues: 101}) {
		t.Fatal("matcher sampling beyond the anchor cap breaks the prefix-subset argument")
	}
	if idx.CoversScorer(0.55, &Matcher{NameWeight: 0.4, InstanceWeight: 0.6}) {
		t.Fatal("uncapped matcher cannot be covered by a capped index")
	}
	unlimited := NewLSHIndex(DefaultSketchSize, 0)
	if !unlimited.CoversScorer(0.55, &Matcher{NameWeight: 0.4, InstanceWeight: 0.6, MaxValues: 10_000}) {
		t.Fatal("unlimited anchor cap covers any sampling cap")
	}
	sm := NewSketchMatcher()
	if !idx.CoversScorer(0.55, sm) {
		t.Fatal("sketched matcher at the index signature size must be covered")
	}
	big := NewSketchMatcher()
	big.SketchSize = DefaultSketchSize * 2
	if idx.CoversScorer(0.55, big) {
		t.Fatal("matcher sketches finer than the index signature must not be covered")
	}
	if idx.CoversScorer(0.40, sm) {
		t.Fatal("a threshold with instMin <= 0 must never be covered")
	}
}

func TestLSHIndexAddRemove(t *testing.T) {
	idx := NewLSHIndex(0, -1)
	tabs := lakeTables(t)
	for _, f := range tabs {
		idx.Add(f)
	}
	// lakeTables carries exactly two join-candidate columns (the two
	// applicant_id keys); weather has none but must still be remembered.
	if idx.Len() != 2 {
		t.Fatalf("Len = %d, want 2 indexed columns", idx.Len())
	}
	if !idx.Has("applicants") || !idx.Has("weather") || idx.Has("nope") {
		t.Fatal("Has must reflect every added table, qualifying columns or not")
	}
	st := idx.Stats()
	if st.Tables != len(tabs) || st.Columns != 2 || st.Slot == 0 {
		t.Fatalf("stats after add look wrong: %+v", st)
	}
	// Candidates for the base table must include the profile join pair.
	found := false
	for _, p := range idx.Candidates("applicants") {
		if (p.TableA == "profile" || p.TableB == "profile") &&
			p.ColA.Name() == "applicant_id" && p.ColB.Name() == "applicant_id" {
			found = true
		}
	}
	if !found {
		t.Fatal("applicant_id pair missing from Candidates")
	}

	// Re-adding replaces rather than duplicates.
	idx.Add(tabs[0])
	if got := idx.Stats(); got.Columns != st.Columns {
		t.Fatalf("re-add must replace entries: %d vs %d columns", got.Columns, st.Columns)
	}

	for _, f := range tabs {
		idx.Remove(f.Name())
	}
	idx.Remove("never-indexed") // no-op
	st = idx.Stats()
	if idx.Len() != 0 || st.Columns != 0 || st.Slot != 0 || st.Anchor != 0 || st.Name != 0 {
		t.Fatalf("buckets must be empty after removing every table: %+v", st)
	}
	if len(idx.Candidates("applicants")) != 0 || len(idx.AllCandidates()) != 0 {
		t.Fatal("empty index must yield no candidates")
	}
}

// TestSketchMatcherConcurrentUse is the regression test for the
// unsynchronized sketch cache: concurrent MatchColumns used to race on
// the map (caught by -race). It must now be safe.
func TestSketchMatcherConcurrentUse(t *testing.T) {
	m := NewSketchMatcher()
	tabs := randomLake(t, 99, 6)
	var cols []*frame.Column
	for _, f := range tabs {
		cols = append(cols, f.Columns()...)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range cols {
				for j := range cols {
					if (i+j+w)%3 == 0 {
						m.MatchColumns(cols[i], cols[j])
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if m.CachedSketches() == 0 {
		t.Fatal("cache must be populated after concurrent matching")
	}
}

func TestSketchMatcherEvict(t *testing.T) {
	m := NewSketchMatcher()
	a := intCol("a", 1, 2, 3, 4)
	b := intCol("b", 2, 3, 4, 5)
	m.MatchColumns(a, b)
	if m.CachedSketches() != 2 {
		t.Fatalf("expected 2 cached sketches, got %d", m.CachedSketches())
	}
	m.Evict([]*frame.Column{a})
	if m.CachedSketches() != 1 {
		t.Fatalf("evict must drop only the named columns, got %d cached", m.CachedSketches())
	}
	m.Evict(nil) // no-op
	if m.CachedSketches() != 1 {
		t.Fatal("nil evict must be a no-op")
	}
}
