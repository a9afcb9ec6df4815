package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"autofeat/internal/frame"
	"autofeat/internal/graph"
	"autofeat/internal/telemetry"
)

// rankingJSON serialises a Ranking for byte-level comparison, zeroing the
// wall-clock SelectionTime (the only field allowed to differ across runs).
func rankingJSON(t *testing.T, r *Ranking) string {
	t.Helper()
	cp := *r
	cp.SelectionTime = 0
	b, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestParallelRunMatchesSequential is the tentpole guarantee: the ranking
// is bit-identical at every worker count, including with randomised join
// normalisation (per-edge RNG streams derived from (Seed, depth, edge)
// make normalisation independent of evaluation order).
func TestParallelRunMatchesSequential(t *testing.T) {
	g := testLake(t, 500)
	var want string
	for _, workers := range []int{1, 4, 8} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		d, err := New(g, "base", "y", cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		got := rankingJSON(t, r)
		if workers == 1 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("Workers=%d ranking differs from sequential:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestParallelRunMatchesSequentialUnderCaps repeats the determinism check
// with the join budget and beam pruning active, where the positional
// budget must fire at the same enumeration index regardless of
// evaluation interleaving.
func TestParallelRunMatchesSequentialUnderCaps(t *testing.T) {
	g := testLake(t, 300)
	var want *Ranking
	var wantJSON string
	for _, workers := range []int{1, 8} {
		cfg := DefaultConfig()
		cfg.MaxEvalJoins = 2
		cfg.BeamWidth = 1
		cfg.Workers = workers
		d, err := New(g, "base", "y", cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			want, wantJSON = r, rankingJSON(t, r)
			if want.Prune.BudgetExhausted == 0 {
				t.Fatal("fixture must actually exhaust the join budget")
			}
			continue
		}
		if got := rankingJSON(t, r); got != wantJSON {
			t.Fatalf("Workers=%d capped ranking differs:\n%s\nvs\n%s", workers, got, wantJSON)
		}
	}
}

// TestConcurrentDiscoveriesSharedCollector runs several parallel
// discoveries at once against one shared telemetry collector — the
// cross-run race the atomic counter registry exists for (run with -race).
func TestConcurrentDiscoveriesSharedCollector(t *testing.T) {
	g := testLake(t, 300)
	col := telemetry.New()
	const runs = 4
	results := make([]*Ranking, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := DefaultConfig()
			cfg.Workers = 2
			cfg.Telemetry = col
			d, err := New(g, "base", "y", cfg)
			if err != nil {
				t.Error(err)
				return
			}
			r, err := d.Run()
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	want := rankingJSON(t, results[0])
	for i := 1; i < runs; i++ {
		if got := rankingJSON(t, results[i]); got != want {
			t.Fatalf("run %d ranking differs from run 0", i)
		}
	}
	snap := col.Snapshot()
	if snap.Counters[telemetry.CtrJoins] == 0 {
		t.Fatal("shared collector must have accumulated join counters")
	}
}

// pathsJSON serialises what a ranking says about its paths: edges,
// features and score bits (JSON floats round-trip exactly), plus the
// exploration counts. It leaves out the base frame, which holds the
// label values themselves.
func pathsJSON(t *testing.T, r *Ranking) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Paths    []RankedPath
		Explored int
		Prune    PruneStats
	}{r.Paths, r.PathsExplored, r.Prune})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestNegativeClassLabelsRankLikeClassIDs runs one lake with its label
// stored as 0/1 and again as −1/+1. The MI estimators read negative codes
// as missing, so before labels were mapped to class ids every −1 row was
// dropped, I(X;Y) was 0 for every candidate and MRMR selected nothing.
// Both runs must now give the same paths, features and score bits.
func TestNegativeClassLabelsRankLikeClassIDs(t *testing.T) {
	run := func(neg, pos int64) *Ranking {
		cfg := DefaultConfig()
		d, err := New(testLakeLabels(t, 400, neg, pos), "base", "y", cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	want := run(0, 1)
	found := false
	for _, p := range want.Paths {
		for _, f := range p.Features {
			found = found || f == "gold.signal"
		}
	}
	if !found {
		t.Fatal("fixture must select gold.signal with 0/1 labels")
	}
	if got := pathsJSON(t, run(-1, 1)); got != pathsJSON(t, want) {
		t.Fatalf("−1/+1 labels rank differently from 0/1:\n%s\nvs\n%s", got, pathsJSON(t, want))
	}
}

// TestParallelRankingStableAcrossRuns repeats one discovery 20 times at
// Workers 1 and 8, with a garbage collection between runs, and requires
// every ranking to be identical. Run under -race it also checks that
// workers share the per-path selected codes read-only, and a memo keyed
// by column address would show here as a stale entry once the collector
// reuses the address.
func TestParallelRankingStableAcrossRuns(t *testing.T) {
	const n = 300
	g := testLake(t, n)
	// Six branches off the base, each with a leaf, and every branch also
	// joined to its neighbour's leaf: many states share one parent's
	// selected codes while workers evaluate their children.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("branch%d", i)
		tab, leaf := frame.New(name), frame.New(name+"leaf")
		ids := make([]int64, n)
		f, v := make([]float64, n), make([]float64, n)
		for j := range ids {
			ids[j] = int64(j)
			f[j] = float64(j%2)*float64(i+1) + rng.NormFloat64()*float64(i+1)
			v[j] = float64(j%2) + rng.NormFloat64()*0.7
		}
		addCol(t, tab, frame.NewIntColumn("k", ids, nil))
		addCol(t, tab, frame.NewIntColumn("leafref", ids, nil))
		addCol(t, tab, frame.NewFloatColumn("f", f, nil))
		addCol(t, leaf, frame.NewIntColumn("lk", ids, nil))
		addCol(t, leaf, frame.NewFloatColumn("v", v, nil))
		g.AddTable(tab)
		g.AddTable(leaf)
		mustEdge(t, g, graph.Edge{A: "base", B: name, ColA: "id", ColB: "k", Weight: 1, KFK: true})
		mustEdge(t, g, graph.Edge{A: name, B: name + "leaf", ColA: "leafref", ColB: "lk", Weight: 1, KFK: true})
	}
	for i := 0; i < 6; i++ {
		mustEdge(t, g, graph.Edge{A: fmt.Sprintf("branch%d", i), B: fmt.Sprintf("branch%dleaf", (i+1)%6), ColA: "leafref", ColB: "lk", Weight: 1, KFK: true})
	}
	var want string
	for run := 0; run < 20; run++ {
		for _, workers := range []int{1, 8} {
			cfg := DefaultConfig()
			cfg.Workers = workers
			d, err := New(g, "base", "y", cfg)
			if err != nil {
				t.Fatal(err)
			}
			r, err := d.Run()
			if err != nil {
				t.Fatal(err)
			}
			got := rankingJSON(t, r)
			if want == "" {
				if r.PathsExplored < 20 {
					t.Fatalf("fixture explored only %d joins", r.PathsExplored)
				}
				want = got
			} else if got != want {
				i := 0
				for i < min(len(got), len(want)) && got[i] == want[i] {
					i++
				}
				t.Fatalf("run %d at Workers=%d differs from the first run at byte %d:\n%s\nvs\n%s",
					run, workers, i, got[max(0, i-80):min(len(got), i+80)], want[max(0, i-80):min(len(want), i+80)])
			}
			runtime.GC()
		}
	}
}
