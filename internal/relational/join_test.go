package relational

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"autofeat/internal/frame"
)

func newFrame(t *testing.T, name string, cols ...*frame.Column) *frame.Frame {
	t.Helper()
	f := frame.New(name)
	for _, c := range cols {
		if err := f.AddColumn(c); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func applicants(t *testing.T) *frame.Frame {
	return newFrame(t, "applicants",
		frame.NewIntColumn("applicants.id", []int64{1, 2, 3, 4}, nil),
		frame.NewIntColumn("applicants.loan_approval", []int64{1, 0, 1, 0}, nil),
	)
}

func credit(t *testing.T) *frame.Frame {
	return newFrame(t, "credit",
		frame.NewIntColumn("person", []int64{2, 3, 5}, nil),
		frame.NewFloatColumn("score", []float64{650, 720, 800}, nil),
	)
}

func TestLeftJoinBasic(t *testing.T) {
	res, err := LeftJoin(applicants(t), credit(t), "applicants.id", "person", Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Frame
	if out.NumRows() != 4 {
		t.Fatalf("left join must keep all 4 left rows, got %d", out.NumRows())
	}
	if len(res.AddedColumns) != 2 {
		t.Fatalf("added = %v", res.AddedColumns)
	}
	sc := out.Column("credit.score")
	if sc == nil {
		t.Fatalf("right columns must be prefixed: %v", out.ColumnNames())
	}
	if sc.IsValid(0) {
		t.Fatal("applicant 1 has no credit row -> null")
	}
	if sc.Float(1) != 650 || sc.Float(2) != 720 {
		t.Fatalf("join values wrong: %v", sc.Floats())
	}
	if res.MatchedRows != 2 {
		t.Fatalf("MatchedRows = %d, want 2", res.MatchedRows)
	}
	if got := res.Quality(); got != 0.5 {
		t.Fatalf("Quality = %v, want 0.5 (half the added cells null)", got)
	}
}

func TestLeftJoinPreservesLabelDistribution(t *testing.T) {
	base := applicants(t)
	wantDist, _ := base.ClassDistribution("applicants.loan_approval")
	// right side has duplicate keys (1:N join)
	right := newFrame(t, "dup",
		frame.NewIntColumn("k", []int64{2, 2, 2, 3}, nil),
		frame.NewFloatColumn("v", []float64{1, 2, 3, 4}, nil),
	)
	res, err := LeftJoin(base, right, "applicants.id", "k", Options{Rng: rand.New(rand.NewSource(9))})
	if err != nil {
		t.Fatal(err)
	}
	gotDist, _ := res.Frame.ClassDistribution("applicants.loan_approval")
	if len(gotDist) != len(wantDist) || gotDist[0] != wantDist[0] || gotDist[1] != wantDist[1] {
		t.Fatalf("label distribution changed: %v vs %v", gotDist, wantDist)
	}
	if res.Frame.NumRows() != base.NumRows() {
		t.Fatal("1:N join must not duplicate rows")
	}
}

func TestLeftJoinNormalizationPicksOneRow(t *testing.T) {
	base := newFrame(t, "b", frame.NewIntColumn("b.k", []int64{7}, nil))
	right := newFrame(t, "r",
		frame.NewIntColumn("k", []int64{7, 7, 7}, nil),
		frame.NewFloatColumn("v", []float64{10, 20, 30}, nil),
	)
	// Deterministic (no rng): first row wins.
	res, err := LeftJoin(base, right, "b.k", "k", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Frame.Column("r.v").Float(0) != 10 {
		t.Fatal("without rng the first row must win")
	}
	// With rng: some seed must pick a non-first row eventually.
	sawOther := false
	for seed := int64(0); seed < 20; seed++ {
		res, err := LeftJoin(base, right, "b.k", "k", Options{Rng: rand.New(rand.NewSource(seed))})
		if err != nil {
			t.Fatal(err)
		}
		if v := res.Frame.Column("r.v").Float(0); v != 10 {
			sawOther = true
			if v != 20 && v != 30 {
				t.Fatalf("picked a value not in the group: %v", v)
			}
		}
	}
	if !sawOther {
		t.Fatal("random normalisation never picked a non-first row across 20 seeds")
	}
}

func TestLeftJoinMissingColumns(t *testing.T) {
	if _, err := LeftJoin(applicants(t), credit(t), "ghost", "person", Options{}); err == nil {
		t.Fatal("missing left key must fail")
	}
	if _, err := LeftJoin(applicants(t), credit(t), "applicants.id", "ghost", Options{}); err == nil {
		t.Fatal("missing right key must fail")
	}
}

func TestLeftJoinNullKeysNeverMatch(t *testing.T) {
	base := newFrame(t, "b", frame.NewIntColumn("b.k", []int64{1, 2}, []bool{true, false}))
	right := newFrame(t, "r",
		frame.NewIntColumn("k", []int64{1, 2}, []bool{true, false}),
		frame.NewFloatColumn("v", []float64{10, 20}, nil),
	)
	res, err := LeftJoin(base, right, "b.k", "k", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MatchedRows != 1 {
		t.Fatalf("null keys must not match: matched %d", res.MatchedRows)
	}
	if res.Frame.Column("r.v").IsValid(1) {
		t.Fatal("null left key row must get null right values")
	}
}

func TestLeftJoinIntFloatKeyCompat(t *testing.T) {
	base := newFrame(t, "b", frame.NewIntColumn("b.k", []int64{3}, nil))
	right := newFrame(t, "r",
		frame.NewFloatColumn("k", []float64{3.0}, nil),
		frame.NewFloatColumn("v", []float64{42}, nil),
	)
	res, err := LeftJoin(base, right, "b.k", "k", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MatchedRows != 1 {
		t.Fatal("int 3 must join float 3.0")
	}
}

func TestLeftJoinNameCollision(t *testing.T) {
	base := newFrame(t, "b",
		frame.NewIntColumn("b.k", []int64{1}, nil),
		frame.NewIntColumn("r.v", []int64{99}, nil), // already has a column named like the incoming one
	)
	right := newFrame(t, "r",
		frame.NewIntColumn("k", []int64{1}, nil),
		frame.NewIntColumn("v", []int64{5}, nil),
	)
	res, err := LeftJoin(base, right, "b.k", "k", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AddedColumns) != 2 {
		t.Fatalf("added = %v", res.AddedColumns)
	}
	for _, name := range res.AddedColumns {
		if name == "r.v" {
			t.Fatalf("collision must be suffixed, got %v", res.AddedColumns)
		}
	}
}

func TestQualityPerfectAndEmpty(t *testing.T) {
	res := &Result{Frame: newFrame(t, "x", frame.NewIntColumn("a", []int64{1}, nil))}
	if res.Quality() != 1 {
		t.Fatal("no added columns -> quality 1")
	}
}

func TestPathMaterialize(t *testing.T) {
	base := applicants(t)
	creditT := newFrame(t, "credit",
		frame.NewIntColumn("person", []int64{1, 2, 3, 4}, nil),
		frame.NewIntColumn("bureau_id", []int64{10, 20, 30, 40}, nil),
	)
	history := newFrame(t, "history",
		frame.NewIntColumn("bureau", []int64{10, 20, 30, 40}, nil),
		frame.NewFloatColumn("defaults", []float64{0, 1, 0, 2}, nil),
	)
	p := Path{
		{FromCol: "applicants.id", To: creditT, ToCol: "person"},
		{FromCol: "credit.bureau_id", To: history, ToCol: "bureau"},
	}
	out, added, err := p.Materialize(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 4 {
		t.Fatal("row count must be preserved over 2 hops")
	}
	if !out.HasColumn("history.defaults") {
		t.Fatalf("transitive columns missing: %v", out.ColumnNames())
	}
	if out.Column("history.defaults").Float(3) != 2 {
		t.Fatal("transitive join value wrong")
	}
	if len(added) != 2 || len(added[1]) != 2 {
		t.Fatalf("added columns per hop wrong: %v", added)
	}
	if got := p.String(); got == "" || got == "(empty path)" {
		t.Fatal("path string broken")
	}
}

func TestPathMaterializeBadHop(t *testing.T) {
	base := applicants(t)
	p := Path{{FromCol: "nope", To: credit(t), ToCol: "person"}}
	if _, _, err := p.Materialize(base, Options{}); err == nil {
		t.Fatal("bad hop must fail")
	}
}

func TestPathMaterializeSampledDeterministic(t *testing.T) {
	base := applicants(t)
	dup := newFrame(t, "dup",
		frame.NewIntColumn("k", []int64{2, 2, 3}, nil),
		frame.NewFloatColumn("v", []float64{5, 6, 7}, nil),
	)
	p := Path{{FromCol: "applicants.id", To: dup, ToCol: "k"}}
	a, _, err := p.Materialize(base, Options{Rng: rand.New(rand.NewSource(4))})
	if err != nil {
		t.Fatal(err)
	}
	b, _, _ := p.Materialize(base, Options{Rng: rand.New(rand.NewSource(4))})
	if !a.Equal(b) {
		t.Fatal("same seed must give identical materialisation")
	}
}

func TestEmptyPathString(t *testing.T) {
	if (Path{}).String() != "(empty path)" {
		t.Fatal("empty path rendering")
	}
}

func TestQualityWithNaNFloats(t *testing.T) {
	// Quality counts null bitmap entries, not NaN payloads.
	base := newFrame(t, "b", frame.NewIntColumn("b.k", []int64{1, 2}, nil))
	right := newFrame(t, "r",
		frame.NewIntColumn("k", []int64{1, 2}, nil),
		frame.NewFloatColumn("v", []float64{math.NaN(), 1}, nil),
	)
	res, err := LeftJoin(base, right, "b.k", "k", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality() != 1 {
		t.Fatal("NaN payload with valid bitmap counts as present")
	}
}

// Property: a left join preserves the left row count and label multiset
// for ANY right-side key overlap, duplication, or null pattern.
func TestLeftJoinPreservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(60)
		ids := make([]int64, n)
		ys := make([]int64, n)
		for i := range ids {
			ids[i] = int64(rng.Intn(n)) // duplicates allowed on the left too
			ys[i] = int64(rng.Intn(2))
		}
		left := frame.New("l")
		if left.AddColumn(frame.NewIntColumn("l.k", ids, nil)) != nil {
			return false
		}
		if left.AddColumn(frame.NewIntColumn("l.y", ys, nil)) != nil {
			return false
		}
		m := 1 + rng.Intn(80)
		rk := make([]int64, m)
		rv := make([]float64, m)
		valid := make([]bool, m)
		for i := range rk {
			rk[i] = int64(rng.Intn(n * 2)) // partial overlap
			rv[i] = rng.NormFloat64()
			valid[i] = rng.Intn(10) > 0
		}
		right := frame.New("r")
		if right.AddColumn(frame.NewIntColumn("k", rk, valid)) != nil {
			return false
		}
		if right.AddColumn(frame.NewFloatColumn("v", rv, nil)) != nil {
			return false
		}
		res, err := LeftJoin(left, right, "l.k", "k", Options{Rng: rng})
		if err != nil {
			return false
		}
		if res.Frame.NumRows() != n {
			return false
		}
		before, _ := left.ClassDistribution("l.y")
		after, _ := res.Frame.ClassDistribution("l.y")
		return before[0] == after[0] && before[1] == after[1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestKeyIndexCacheReuse(t *testing.T) {
	base := applicants(t)
	right := credit(t)
	cache := NewKeyIndexCache()
	// Two joins against the same right column: one miss, then one hit, and
	// identical output to the uncached join.
	for i := 0; i < 2; i++ {
		cached, err := LeftJoin(base, right, "applicants.id", "person", Options{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := LeftJoin(base, right, "applicants.id", "person", Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !cached.Frame.Equal(plain.Frame) {
			t.Fatalf("iteration %d: cached join differs from uncached", i)
		}
	}
	if hits, misses := cache.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
}

func TestKeyIndexCacheKeying(t *testing.T) {
	rc := credit(t).Column("person")
	cache := NewKeyIndexCache()
	// Deterministic (non-random) indexes ignore the seed: any Seed value
	// shares one entry.
	cache.index(rc, Options{})
	cache.index(rc, Options{Seed: 42})
	if hits, misses := cache.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("deterministic keying: %d hits / %d misses, want 1/1", hits, misses)
	}
	// Randomised normalisation keys on the seed: distinct seeds are
	// distinct entries, the same seed is a hit.
	cache.index(rc, Options{Rng: rand.New(rand.NewSource(1)), Seed: 1})
	cache.index(rc, Options{Rng: rand.New(rand.NewSource(2)), Seed: 2})
	cache.index(rc, Options{Rng: rand.New(rand.NewSource(1)), Seed: 1})
	if hits, misses := cache.Stats(); hits != 2 || misses != 3 {
		t.Fatalf("random keying: %d hits / %d misses, want 2/3", hits, misses)
	}
	// A nil cache stays inert and nil-safe.
	var nilCache *KeyIndexCache
	if idx := nilCache.index(rc, Options{}); len(idx) != 3 {
		t.Fatalf("nil cache must still build the index, got %v", idx)
	}
	if hits, misses := nilCache.Stats(); hits != 0 || misses != 0 {
		t.Fatal("nil cache stats must be zero")
	}
}

func TestKeyIndexCacheSeedContract(t *testing.T) {
	// The Options.Seed contract: when Rng is derived from Seed, a cache hit
	// (which skips Rng entirely) yields the same join as the original build.
	base := newFrame(t, "b",
		frame.NewIntColumn("b.id", []int64{1, 2, 3, 4}, nil),
	)
	right := newFrame(t, "dup",
		frame.NewIntColumn("k", []int64{2, 2, 2, 3, 3}, nil),
		frame.NewFloatColumn("v", []float64{1, 2, 3, 4, 5}, nil),
	)
	cache := NewKeyIndexCache()
	opts := func() Options {
		return Options{Rng: rand.New(rand.NewSource(5)), Seed: 5, Cache: cache}
	}
	r1, err := LeftJoin(base, right, "b.id", "k", opts())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := LeftJoin(base, right, "b.id", "k", opts())
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Frame.Equal(r2.Frame) {
		t.Fatal("cache hit must reproduce the seeded normalisation exactly")
	}
	if hits, _ := cache.Stats(); hits != 1 {
		t.Fatalf("second join must hit the cache, hits = %d", hits)
	}
}
