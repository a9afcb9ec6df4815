package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"autofeat/internal/frame"
	"autofeat/internal/graph"
	"autofeat/internal/ml"
	"autofeat/internal/telemetry"
)

// testLakeWide is testLake with two more tables hanging off the base
// table, each covering every base id with a weaker copy of the signal, so
// the default TopK of 4 has four paths to train on:
//
//	base --id/aid--> side_a(aid, a_val)
//	base --id/bid--> side_b(bid, b_val)
func testLakeWide(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g := testLake(t, n)
	rng := rand.New(rand.NewSource(7))
	for _, side := range []struct {
		name, key, val string
		noise          float64
	}{{"side_a", "aid", "a_val", 1.5}, {"side_b", "bid", "b_val", 3}} {
		ids := make([]int64, n)
		vals := make([]float64, n)
		for i := range ids {
			ids[i] = int64(i)
			vals[i] = float64(i%2) + rng.NormFloat64()*side.noise
		}
		f := frame.New(side.name)
		addCol(t, f, frame.NewIntColumn(side.key, ids, nil))
		addCol(t, f, frame.NewFloatColumn(side.val, vals, nil))
		g.AddTable(f)
		mustEdge(t, g, graph.Edge{A: "base", B: side.name, ColA: "id", ColB: side.key, Weight: 1, KFK: true})
	}
	return g
}

// evalFingerprint renders everything an evaluation decides — every
// evaluated path with its score bits, the winner and its feature set —
// for exact comparison across runs.
func evalFingerprint(res *AugmentResult) string {
	var b strings.Builder
	for _, pe := range res.Evaluated {
		fmt.Fprintf(&b, "%v|%s|%x|%x|%x\n", pe.Path.Edges, pe.Eval.Model,
			math.Float64bits(pe.Eval.Accuracy), math.Float64bits(pe.Eval.AUC), math.Float64bits(pe.Eval.F1))
	}
	fmt.Fprintf(&b, "best %v %x features %v partial %v %q",
		res.Best.Path.Edges, math.Float64bits(res.Best.Eval.Accuracy), res.Features, res.Partial, res.PartialReason)
	return b.String()
}

// manifestJSON is the evaluated run's manifest without its wall-clock
// fields and the worker count, the only fields allowed to differ.
func manifestJSON(t *testing.T, d *Discovery, res *AugmentResult) string {
	t.Helper()
	m := d.Manifest(res.Ranking)
	m.AttachEvaluation(res)
	m.CreatedUnixMS, m.SelectionSeconds, m.TotalSeconds, m.Config.Workers = 0, 0, 0, 0
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestEvaluateRankingMatchesSequential is the guarantee of the pooled
// top-k evaluation: at every worker count, and on every repeat, the
// evaluated candidates, their score bits, the winner, its features, its
// table and the manifest are those of the sequential run.
func TestEvaluateRankingMatchesSequential(t *testing.T) {
	g := testLakeWide(t, 200)
	for _, model := range []string{"lightgbm", "knn"} {
		factory, _ := ml.FactoryByName(model)
		var want, wantManifest string
		for _, workers := range []int{1, 2, 8} {
			cfg := DefaultConfig()
			cfg.Workers = workers
			d, err := New(g, "base", "y", cfg)
			if err != nil {
				t.Fatal(err)
			}
			for run := 0; run < 10; run++ {
				res, err := d.Augment(factory)
				if err != nil {
					t.Fatalf("%s Workers=%d run %d: %v", model, workers, run, err)
				}
				if n := len(res.Ranking.TopK(cfg.TopK)); n != 4 || len(res.Evaluated) != n+1 {
					t.Fatalf("%s Workers=%d: %d top-k paths, %d evaluated; want 4 and 5", model, workers, n, len(res.Evaluated))
				}
				direct, _, err := d.MaterializePath(res.Best.Path, res.Ranking.Base)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Table.Equal(direct) {
					t.Fatalf("%s Workers=%d run %d: result table differs from the best path materialised directly", model, workers, run)
				}
				got, gotManifest := evalFingerprint(res), manifestJSON(t, d, res)
				if want == "" {
					want, wantManifest = got, gotManifest
					continue
				}
				if got != want {
					t.Fatalf("%s Workers=%d run %d evaluation differs from sequential:\n%s\nvs\n%s", model, workers, run, got, want)
				}
				if gotManifest != wantManifest {
					t.Fatalf("%s Workers=%d run %d manifest differs from sequential:\n%s\nvs\n%s", model, workers, run, gotManifest, wantManifest)
				}
			}
		}
	}
}

// hookedClassifier runs onFit before every Fit of the wrapped model.
type hookedClassifier struct {
	ml.Classifier
	onFit func(X [][]float64)
}

func (c hookedClassifier) Fit(X [][]float64, y []int) error {
	c.onFit(X)
	return c.Classifier.Fit(X, y)
}

// hookedFactory wraps factory's models so onFit sees every Fit.
func hookedFactory(factory ml.Factory, onFit func(X [][]float64)) ml.Factory {
	return ml.Factory{Name: factory.Name, New: func(seed int64) ml.Classifier {
		return hookedClassifier{Classifier: factory.New(seed), onFit: onFit}
	}}
}

// TestEvaluateRankingCancelledKeepsPrefix cancels the context inside the
// k-th model fit (and every later one). Whatever ran by then, the result
// must be a prefix of the candidate order that starts with the base
// table, with Best its first maximum and the best path's table attached.
// Sequentially the prefix is exactly the k fitted candidates. On the
// pool only k = 1 is certain to stop short: a worker takes a new
// candidate only after one of its fits, and every fit cancels.
func TestEvaluateRankingCancelledKeepsPrefix(t *testing.T) {
	g := testLakeWide(t, 300)
	knn, _ := ml.FactoryByName("knn")
	for _, tc := range []struct {
		workers int
		k       int64
	}{{1, 1}, {1, 2}, {1, 3}, {4, 1}} {
		workers, k := tc.workers, tc.k
		cfg := DefaultConfig()
		cfg.Workers = workers
		tel := telemetry.New()
		cfg.Telemetry = tel
		d, err := New(g, "base", "y", cfg)
		if err != nil {
			t.Fatal(err)
		}
		ranking, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var fits atomic.Int64
		factory := hookedFactory(knn, func([][]float64) {
			if fits.Add(1) >= k {
				cancel()
			}
		})
		res, err := d.EvaluateRankingContext(ctx, ranking, factory)
		cancel()
		if err != nil {
			t.Fatalf("Workers=%d k=%d: a cancelled evaluation must degrade, not error: %v", workers, k, err)
		}
		candidates := append([]RankedPath{{Quality: 1}}, ranking.TopK(cfg.TopK)...)
		if len(res.Evaluated) == 0 || len(res.Evaluated) >= len(candidates) {
			t.Fatalf("Workers=%d k=%d: %d of %d candidates evaluated, want a proper prefix", workers, k, len(res.Evaluated), len(candidates))
		}
		if workers == 1 {
			if len(res.Evaluated) != int(k) {
				t.Fatalf("Workers=1 k=%d: %d evaluated, want exactly the %d fits before the stop", k, len(res.Evaluated), k)
			}
			// Candidates after the stop are not even materialised; the
			// one extra materialisation is the winner's, for the result.
			var mats int
			for _, p := range tel.Snapshot().Phases() {
				if p.Name == telemetry.SpanMaterialize {
					mats = p.Count
				}
			}
			if mats != int(k)+1 {
				t.Fatalf("Workers=1 k=%d: %d materialisations, want %d", k, mats, k+1)
			}
		}
		best := 0
		for i, pe := range res.Evaluated {
			if !samePath(pe.Path, candidates[i]) {
				t.Fatalf("Workers=%d k=%d: evaluation %d is %v, want candidate %v", workers, k, i, pe.Path.Edges, candidates[i].Edges)
			}
			if pe.Eval.Accuracy > res.Evaluated[best].Eval.Accuracy {
				best = i
			}
		}
		if !samePath(res.Best.Path, res.Evaluated[best].Path) || res.Best.Eval != res.Evaluated[best].Eval {
			t.Fatalf("Workers=%d k=%d: best is %v, want the first maximum %v", workers, k, res.Best.Path.Edges, res.Evaluated[best].Path.Edges)
		}
		if !res.Partial || res.PartialReason != "cancelled" {
			t.Fatalf("Workers=%d k=%d: partial=%v reason=%q, want a cancelled partial result", workers, k, res.Partial, res.PartialReason)
		}
		if res.Table == nil || len(res.Features) == 0 {
			t.Fatalf("Workers=%d k=%d: cancelled result lost the best table or its features", workers, k)
		}
		if direct, _, err := d.MaterializePath(res.Best.Path, ranking.Base); err != nil || !res.Table.Equal(direct) {
			t.Fatalf("Workers=%d k=%d: result table is not the best path's (%v)", workers, k, err)
		}
	}
}

// TestEvaluateRankingPanicBecomesError makes the model panic in Fit on
// one candidate: the evaluation must return an error naming the panic,
// the same one at every worker count, instead of crashing the process
// from a pool goroutine.
func TestEvaluateRankingPanicBecomesError(t *testing.T) {
	g := testLakeWide(t, 300)
	knn, _ := ml.FactoryByName("knn")
	var want string
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		d, err := New(g, "base", "y", cfg)
		if err != nil {
			t.Fatal(err)
		}
		ranking, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		// The widest candidate is the one that panics.
		width := 0
		for _, p := range ranking.TopK(cfg.TopK) {
			_, features, err := d.MaterializePath(p, ranking.Base)
			if err != nil {
				t.Fatal(err)
			}
			width = max(width, len(features))
		}
		factory := hookedFactory(knn, func(X [][]float64) {
			if len(X[0]) == width {
				panic("injected fit panic")
			}
		})
		res, err := d.EvaluateRanking(ranking, factory)
		if err == nil {
			t.Fatalf("Workers=%d: a panicking model returned a result (%d evaluated), want an error", workers, len(res.Evaluated))
		}
		if !strings.Contains(err.Error(), "injected fit panic") {
			t.Fatalf("Workers=%d: error %q does not carry the panic", workers, err)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Fatalf("Workers=%d error %q, want the sequential run's %q", workers, err, want)
		}
	}
}
