package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"autofeat/internal/discovery"
	"autofeat/internal/errs"
	"autofeat/internal/frame"
	"autofeat/internal/ml"
	"autofeat/internal/relational"
	"autofeat/internal/telemetry"
)

// faultCfg returns the deterministic configuration the fault tests share:
// sequential-equivalent at any worker count, no sampling noise.
func faultCfg(workers int) Config {
	cfg := DefaultConfig()
	cfg.Workers = workers
	cfg.SampleSize = 0
	return cfg
}

// TestFailingJoinPrunesOnePath injects a joinFn that fails every join into
// one table and checks that exactly those paths are pruned as join_failed —
// deterministically at every worker count — while the rest of the search
// proceeds.
func TestFailingJoinPrunesOnePath(t *testing.T) {
	var want string
	for _, workers := range []int{1, 8} {
		g := testLake(t, 200)
		cfg := faultCfg(workers)
		cfg.joinFn = func(left, right *frame.Frame, leftKey, rightKey string, opt relational.Options) (*relational.Result, error) {
			if right.Name() == "gold" {
				return nil, fmt.Errorf("injected fault joining %q", right.Name())
			}
			return relational.LeftJoin(left, right, leftKey, rightKey, opt)
		}
		d, err := New(g, "base", "y", cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := d.Run()
		if err != nil {
			t.Fatalf("Workers=%d: %v", workers, err)
		}
		if r.Partial {
			t.Fatalf("Workers=%d: a failing join must prune, not truncate: %+v", workers, r.Prune)
		}
		if r.Prune.JoinFailed == 0 {
			t.Fatalf("Workers=%d: expected join_failed prunes, got %+v", workers, r.Prune)
		}
		for _, p := range r.Paths {
			for _, e := range p.Edges {
				if e.B == "gold" {
					t.Fatalf("Workers=%d: path through failing table survived: %v", workers, p.Edges)
				}
			}
		}
		got := rankingJSON(t, r)
		if workers == 1 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("Workers=%d ranking differs under injected join failure:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestPanickingJoinDegrades injects a joinFn that panics and checks the
// panic is contained to a join_failed prune of that path (counted under
// discovery.join_panics) instead of crashing the worker pool.
func TestPanickingJoinDegrades(t *testing.T) {
	var want string
	for _, workers := range []int{1, 8} {
		g := testLake(t, 200)
		tel := telemetry.New()
		cfg := faultCfg(workers)
		cfg.Telemetry = tel
		cfg.joinFn = func(left, right *frame.Frame, leftKey, rightKey string, opt relational.Options) (*relational.Result, error) {
			if right.Name() == "bridge" {
				panic("injected join panic")
			}
			return relational.LeftJoin(left, right, leftKey, rightKey, opt)
		}
		d, err := New(g, "base", "y", cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := d.Run()
		if err != nil {
			t.Fatalf("Workers=%d: %v", workers, err)
		}
		if r.Prune.JoinFailed == 0 {
			t.Fatalf("Workers=%d: panicking join not folded into join_failed: %+v", workers, r.Prune)
		}
		snap := tel.Snapshot()
		if snap.Counters[telemetry.CtrJoinPanics] == 0 {
			t.Fatalf("Workers=%d: %s counter not incremented", workers, telemetry.CtrJoinPanics)
		}
		got := rankingJSON(t, r)
		if workers == 1 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("Workers=%d ranking differs under injected panic:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestCancelledRunReturnsDeterministicPartial cancels the context from
// inside the join shim after the whole first BFS depth has been evaluated
// (the lake's depth 0 enumerates exactly two joins). The second depth is
// then discarded wholesale, so the partial ranking must contain exactly
// the depth-0 paths and be bit-identical at every worker count.
func TestCancelledRunReturnsDeterministicPartial(t *testing.T) {
	var want string
	for _, workers := range []int{1, 8} {
		g := testLake(t, 200)
		tel := telemetry.New()
		cfg := faultCfg(workers)
		cfg.Telemetry = tel
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var calls atomic.Int64
		cfg.joinFn = func(left, right *frame.Frame, leftKey, rightKey string, opt relational.Options) (*relational.Result, error) {
			if calls.Add(1) > 2 {
				// Depth 0 is complete; stop the run during depth 1.
				cancel()
			}
			return relational.LeftJoin(left, right, leftKey, rightKey, opt)
		}
		d, err := New(g, "base", "y", cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := d.RunContext(ctx)
		if err != nil {
			t.Fatalf("Workers=%d: cancellation must degrade, not error: %v", workers, err)
		}
		if !r.Partial || r.PartialReason != "cancelled" {
			t.Fatalf("Workers=%d: Partial=%v reason=%q, want partial/cancelled", workers, r.Partial, r.PartialReason)
		}
		if r.Prune.Cancelled == 0 {
			t.Fatalf("Workers=%d: discarded depth not counted: %+v", workers, r.Prune)
		}
		if len(r.Paths) == 0 {
			t.Fatalf("Workers=%d: completed depth 0 must survive the cancellation", workers)
		}
		for _, p := range r.Paths {
			if len(p.Edges) != 1 {
				t.Fatalf("Workers=%d: depth-1 path leaked into the partial ranking: %v", workers, p.Edges)
			}
		}
		snap := tel.Snapshot()
		if snap.Counters[telemetry.PrunedCounter(telemetry.PruneCancelled)] == 0 {
			t.Fatalf("Workers=%d: cancelled prune reason missing from telemetry", workers)
		}
		if snap.Counters[telemetry.CtrPartialRuns] != 1 {
			t.Fatalf("Workers=%d: partial_runs = %d, want 1", workers, snap.Counters[telemetry.CtrPartialRuns])
		}
		got := rankingJSON(t, r)
		if workers == 1 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("Workers=%d partial ranking differs:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestAlreadyCancelledRunReturnsEmptyPartial hands RunContext a context
// that is already done: the run must return an empty, Partial ranking —
// not an error — without evaluating anything.
func TestAlreadyCancelledRunReturnsEmptyPartial(t *testing.T) {
	g := testLake(t, 100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d, err := New(g, "base", "y", faultCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	r, err := d.RunContext(ctx)
	if err != nil {
		t.Fatalf("pre-cancelled context must degrade, not error: %v", err)
	}
	if !r.Partial || r.PartialReason != "cancelled" {
		t.Fatalf("Partial=%v reason=%q, want partial/cancelled", r.Partial, r.PartialReason)
	}
	if len(r.Paths) != 0 || r.PathsExplored != 0 {
		t.Fatalf("pre-cancelled run evaluated joins: %d paths, %d explored", len(r.Paths), r.PathsExplored)
	}
}

// TestTimeoutReturnsPartial makes every join slow and sets Config.Timeout
// below the first join's cost: the deadline must surface as a Partial
// ranking with reason "deadline" rather than an error.
func TestTimeoutReturnsPartial(t *testing.T) {
	g := testLake(t, 100)
	cfg := faultCfg(2)
	cfg.Timeout = 20 * time.Millisecond
	cfg.joinFn = func(left, right *frame.Frame, leftKey, rightKey string, opt relational.Options) (*relational.Result, error) {
		time.Sleep(50 * time.Millisecond)
		return relational.LeftJoin(left, right, leftKey, rightKey, opt)
	}
	d, err := New(g, "base", "y", cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := d.Run()
	if err != nil {
		t.Fatalf("deadline must degrade, not error: %v", err)
	}
	if !r.Partial || r.PartialReason != "deadline" {
		t.Fatalf("Partial=%v reason=%q, want partial/deadline", r.Partial, r.PartialReason)
	}
}

// TestSlowJoinAbortedByDeadline checks the cooperative checkpoint inside
// the join row loop itself: a join already running when the deadline
// expires returns an ErrCancelled-matching error instead of completing.
func TestSlowJoinAbortedByDeadline(t *testing.T) {
	g := testLake(t, 50_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	base := g.Table("base").Prefixed("base")
	_, err := relational.LeftJoin(base, g.Table("bridge"), "base.id", "pid", relational.Options{Ctx: ctx})
	if err == nil {
		t.Fatal("cancelled context did not abort the join")
	}
	if !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("join abort error %v does not match ErrCancelled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("join abort error %v lost the context cause", err)
	}
}

// TestMaxEvalJoinsBudget exhausts the join budget mid-traversal: the lake
// enumerates two joins at depth 0 and one at depth 1, so a budget of 2
// evaluates depth 0 in full and skips depth 1 under budget_exhausted,
// deterministically at every worker count.
func TestMaxEvalJoinsBudget(t *testing.T) {
	var want string
	for _, workers := range []int{1, 8} {
		g := testLake(t, 200)
		tel := telemetry.New()
		cfg := faultCfg(workers)
		cfg.Telemetry = tel
		cfg.MaxEvalJoins = 2
		d, err := New(g, "base", "y", cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := d.Run()
		if err != nil {
			t.Fatalf("Workers=%d: %v", workers, err)
		}
		if !r.Partial || r.PartialReason != "max_eval_joins" {
			t.Fatalf("Workers=%d: Partial=%v reason=%q, want partial/max_eval_joins", workers, r.Partial, r.PartialReason)
		}
		if r.PathsExplored != 2 {
			t.Fatalf("Workers=%d: explored %d joins, budget was 2", workers, r.PathsExplored)
		}
		if r.Prune.BudgetExhausted != 1 {
			t.Fatalf("Workers=%d: budget_exhausted = %d, want 1", workers, r.Prune.BudgetExhausted)
		}
		if got := tel.Snapshot().Counters[telemetry.PrunedCounter(telemetry.PruneBudgetExhausted)]; got != 1 {
			t.Fatalf("Workers=%d: telemetry budget_exhausted = %d, want 1", workers, got)
		}
		got := rankingJSON(t, r)
		if workers == 1 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("Workers=%d budget-truncated ranking differs:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestMaxEvalJoinsBudgetMidDepth stops the traversal inside a depth: the
// lake enumerates two joins at depth 0, so a budget of 1 evaluates the
// first and flags the second budget_exhausted, deterministically at
// every worker count.
func TestMaxEvalJoinsBudgetMidDepth(t *testing.T) {
	var want string
	for _, workers := range []int{1, 8} {
		g := testLake(t, 200)
		cfg := faultCfg(workers)
		cfg.MaxEvalJoins = 1
		d, err := New(g, "base", "y", cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := d.Run()
		if err != nil {
			t.Fatalf("Workers=%d: %v", workers, err)
		}
		if !r.Partial || r.PartialReason != "max_eval_joins" {
			t.Fatalf("Workers=%d: Partial=%v reason=%q, want partial/max_eval_joins", workers, r.Partial, r.PartialReason)
		}
		if r.PathsExplored != 1 {
			t.Fatalf("Workers=%d: explored %d joins, budget admits 1", workers, r.PathsExplored)
		}
		if r.Prune.BudgetExhausted != 1 {
			t.Fatalf("Workers=%d: budget_exhausted = %d, want 1", workers, r.Prune.BudgetExhausted)
		}
		got := rankingJSON(t, r)
		if workers == 1 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("Workers=%d mid-depth budget ranking differs:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestAugmentContextCancelledStillReturnsBase is the end-to-end floor
// guarantee: even with the context cancelled before the run starts,
// AugmentContext returns the base-table evaluation (flagged Partial)
// instead of an error.
func TestAugmentContextCancelledStillReturnsBase(t *testing.T) {
	g := testLake(t, 200)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d, err := New(g, "base", "y", faultCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	factory, _ := ml.FactoryByName("knn")
	res, err := d.AugmentContext(ctx, factory)
	if err != nil {
		t.Fatalf("cancelled Augment must degrade, not error: %v", err)
	}
	if !res.Partial {
		t.Fatal("cancelled Augment result not flagged Partial")
	}
	if len(res.Evaluated) != 1 || len(res.Best.Path.Edges) != 0 {
		t.Fatalf("expected exactly the base candidate, got %d evaluations, best=%v",
			len(res.Evaluated), res.Best.Path.Edges)
	}
	if res.Table == nil || len(res.Features) == 0 {
		t.Fatal("base evaluation missing table or features")
	}
}

// TestDegenerateMatcherShim drives the offline phase through
// discovery.DiscoverDRGQuadratic's injectable scorer with pathological
// settings (no evidence sources, one sampled value): the DRG degrades to
// fewer or no edges, and discovery over it still completes with the
// base-only result rather than failing.
func TestDegenerateMatcherShim(t *testing.T) {
	g := testLake(t, 100)
	var tables []*frame.Frame
	for _, name := range []string{"base", "bridge", "gold", "junk"} {
		tables = append(tables, g.Table(name))
	}
	shim := &discovery.Matcher{NameWeight: 0, InstanceWeight: 0, MaxValues: 1}
	dg, err := discovery.DiscoverDRGQuadratic(tables, 0.55, shim)
	if err != nil {
		t.Fatalf("degenerate matcher must degrade, not error: %v", err)
	}
	if dg.NumEdges() != 0 {
		t.Fatalf("zero-weight matcher produced %d edges", dg.NumEdges())
	}
	d, err := New(dg, "base", "y", faultCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	r, err := d.Run()
	if err != nil {
		t.Fatalf("discovery over an edgeless DRG failed: %v", err)
	}
	if len(r.Paths) != 0 || r.Partial {
		t.Fatalf("edgeless DRG should yield an empty, complete ranking; got %d paths partial=%v", len(r.Paths), r.Partial)
	}
}
