// Package relational implements the join engine of the AutoFeat
// reproduction: left joins with join-cardinality normalisation (Section
// IV-B of the paper), multi-hop join-path materialisation and the
// data-quality measurements that drive path pruning (Section IV-C).
//
// AutoFeat only ever performs LEFT joins so that the base table's row count
// and label distribution are preserved exactly. One-to-many and
// many-to-many joins are first reduced to one-to-one by grouping the right
// side on the join column and keeping a single representative row per key
// (randomly chosen when an *rand.Rand is supplied, deterministically the
// first row otherwise).
package relational

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"sync"

	"autofeat/internal/errs"
	"autofeat/internal/frame"
	"autofeat/internal/telemetry"
)

// Options controls join behaviour.
type Options struct {
	// Ctx, when non-nil, is checked cooperatively during the join (every
	// ctxCheckRows left rows): a cancelled context aborts the join with an
	// error wrapping errs.ErrCancelled, so a deadline cuts a large
	// materialisation short instead of running it to completion.
	Ctx context.Context
	// Rng picks the one right row each join key keeps (the paper's
	// cardinality handling: group by the join column, pick a row at
	// random), so a join never duplicates left rows. Nil keeps each key's
	// first occurrence, which is fully deterministic.
	Rng *rand.Rand
	// Seed identifies the stream Rng was created from, for Cache keying.
	// Callers that pass both Cache and a non-nil Rng MUST derive Rng from
	// Seed (rand.New(rand.NewSource(Seed))) so that a cached index and a
	// freshly built one are interchangeable.
	Seed int64
	// Cache, when non-nil, memoises the right-side key index per
	// (column, seed) so repeated joins against the same right table skip
	// the index build. Safe for concurrent use.
	Cache *KeyIndexCache
	// Telemetry, when non-nil, records a span and duration histogram per
	// join. Nil disables collection.
	Telemetry *telemetry.Collector
	// Log, when non-nil, receives a Debug record per join (keys, row
	// counts, match ratio). Nil — the default — disables logging.
	Log *slog.Logger
}

// Result is the outcome of a left join.
type Result struct {
	// Frame is the joined table: all left columns followed by the right
	// columns renamed to "rightTable.column".
	Frame *frame.Frame
	// AddedColumns are the names of the columns contributed by the right
	// side, in order — the candidate features of this join.
	AddedColumns []string
	// MatchedRows is the number of left rows that found a join partner.
	MatchedRows int
}

// Quality returns the completeness (non-null ratio) over the columns added
// by this join — the paper's data-quality measure. A join whose Quality
// falls below the threshold τ is pruned.
func (r *Result) Quality() float64 {
	cells, nulls := 0, 0
	for _, name := range r.AddedColumns {
		c := r.Frame.Column(name)
		cells += c.Len()
		nulls += c.NullCount()
	}
	if cells == 0 {
		return 1
	}
	return 1 - float64(nulls)/float64(cells)
}

// LeftJoin joins left with right on left[leftKey] = right[rightKey],
// preserving every left row exactly once. Unmatched left rows receive nulls
// in the right-hand columns. Right columns are prefixed with the right
// table's name; name collisions get a numeric suffix.
func LeftJoin(left, right *frame.Frame, leftKey, rightKey string, opt Options) (*Result, error) {
	lc := left.Column(leftKey)
	if lc == nil {
		return nil, fmt.Errorf("relational: left table %q has no column %q", left.Name(), leftKey)
	}
	rc := right.Column(rightKey)
	if rc == nil {
		return nil, fmt.Errorf("relational: right table %q has no column %q", right.Name(), rightKey)
	}
	_, sp := opt.Telemetry.Trace().StartSpan(opt.Ctx, telemetry.SpanLeftJoin)
	defer sp.End()
	opt.Telemetry.Meter().Inc(telemetry.CtrJoins)

	if err := cancelled(opt.Ctx); err != nil {
		return nil, err
	}

	// Build key -> right-row index, normalising cardinality. The cache
	// (when present) reuses indexes across joins against the same column.
	rowFor := opt.Cache.index(rc, opt)

	// Map each left row to a right row (-1 = no match -> nulls).
	idx := make([]int, left.NumRows())
	matched := 0
	for i := range idx {
		if i%ctxCheckRows == 0 && i > 0 {
			if err := cancelled(opt.Ctx); err != nil {
				return nil, err
			}
		}
		idx[i] = -1
		if k, ok := lc.Key(i); ok {
			if r, ok := rowFor[k]; ok {
				idx[i] = r
				matched++
			}
		}
	}

	rightRows := right.Prefixed(right.Name()).Take(idx)
	out, err := left.ConcatCols(rightRows)
	if err != nil {
		return nil, err
	}
	sp.SetStr("on", leftKey+" = "+right.Name()+"."+rightKey)
	sp.SetInt("left_rows", left.NumRows())
	sp.SetInt("matched_rows", matched)
	if opt.Log != nil {
		opt.Log.Debug("left join",
			"on", leftKey+" = "+right.Name()+"."+rightKey,
			"left_rows", left.NumRows(), "matched_rows", matched)
	}
	added := out.ColumnNames()[left.NumCols():]
	return &Result{Frame: out.WithName(left.Name()), AddedColumns: added, MatchedRows: matched}, nil
}

// ctxCheckRows is the row stride between cooperative cancellation checks
// inside LeftJoin's row-mapping loop — frequent enough to stop a large
// join within microseconds of a deadline, rare enough to cost nothing.
const ctxCheckRows = 4096

// cancelled returns an errs.Cancelled-classified error when ctx is done,
// nil otherwise (including for a nil ctx).
func cancelled(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return errs.Cancelled(err)
	}
	return nil
}

// keyIndexKey identifies one memoised key index. The column pointer is
// the identity: graph tables are stable for the lifetime of a run, and a
// column is immutable once inside a Frame. random distinguishes the
// deterministic first-occurrence index (reusable regardless of seed) from
// reservoir-sampled indexes, which are pure functions of the seed.
type keyIndexKey struct {
	col    *frame.Column
	random bool
	seed   int64
}

// KeyIndexCache memoises the key→row indexes LeftJoin builds for its
// right side, so repeated joins against the same table column reuse the
// map instead of rescanning the column. It is safe for concurrent use —
// the parallel discovery loop shares one cache across its workers.
type KeyIndexCache struct {
	mu           sync.Mutex
	m            map[keyIndexKey]map[string]int
	hits, misses int64
}

// NewKeyIndexCache returns an empty cache.
func NewKeyIndexCache() *KeyIndexCache {
	return &KeyIndexCache{m: make(map[keyIndexKey]map[string]int)}
}

// Stats reports cache hits and misses so far.
func (c *KeyIndexCache) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// InvalidateColumns evicts every memoised key index built over one of
// the given columns. The lake mutation path calls it with exactly the
// columns of a replaced or dropped table — entries for every other
// column survive, which is what keeps incremental maintenance cheap
// (and is asserted by the cache-identity test).
func (c *KeyIndexCache) InvalidateColumns(cols []*frame.Column) {
	if c == nil || len(cols) == 0 {
		return
	}
	drop := make(map[*frame.Column]bool, len(cols))
	for _, col := range cols {
		drop[col] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := range c.m {
		if drop[k.col] {
			delete(c.m, k)
		}
	}
}

// Peek returns the memoised deterministic (first-occurrence) key index
// for the column, or nil, without counting a hit or building anything.
// It exists so tests can assert pointer identity of surviving entries
// across lake mutations.
func (c *KeyIndexCache) Peek(col *frame.Column) map[string]int {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[keyIndexKey{col: col}]
}

// Len reports how many key indexes the cache currently holds — the
// per-lake cache-size gauge the service exports.
func (c *KeyIndexCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// index returns the (possibly cached) key index for rc under opt. A nil
// cache builds the index directly. The returned map is shared and must be
// treated as read-only. On a miss the index is built outside the lock:
// two goroutines may race to build the same index, but both builds are
// identical (the index is a pure function of the key), so last-write-wins
// is harmless and concurrent misses never serialise behind each other.
func (c *KeyIndexCache) index(rc *frame.Column, opt Options) map[string]int {
	if c == nil {
		return buildKeyIndex(rc, opt)
	}
	key := keyIndexKey{col: rc, random: opt.Rng != nil, seed: opt.Seed}
	if !key.random {
		// The deterministic index ignores the seed entirely; collapse the
		// key so every caller shares one entry.
		key.seed = 0
	}
	c.mu.Lock()
	if idx, ok := c.m[key]; ok {
		c.hits++
		c.mu.Unlock()
		opt.Telemetry.Meter().Inc(telemetry.CtrKeyIndexHits)
		return idx
	}
	c.mu.Unlock()
	idx := buildKeyIndex(rc, opt)
	c.mu.Lock()
	c.m[key] = idx
	c.misses++
	c.mu.Unlock()
	opt.Telemetry.Meter().Inc(telemetry.CtrKeyIndexMisses)
	return idx
}

// buildKeyIndex returns the representative right-row index per join key.
func buildKeyIndex(rc *frame.Column, opt Options) map[string]int {
	if opt.Rng == nil {
		// First occurrence wins.
		rowFor := make(map[string]int, rc.Len())
		for i, n := 0, rc.Len(); i < n; i++ {
			if k, ok := rc.Key(i); ok {
				if _, seen := rowFor[k]; !seen {
					rowFor[k] = i
				}
			}
		}
		return rowFor
	}
	// Reservoir-sample one row per key so group-by + random pick is a
	// single pass (the paper's "group by the join column and randomly
	// select a row").
	rowFor := make(map[string]int, rc.Len())
	count := make(map[string]int, rc.Len())
	for i, n := 0, rc.Len(); i < n; i++ {
		k, ok := rc.Key(i)
		if !ok {
			continue
		}
		count[k]++
		if opt.Rng.Intn(count[k]) == 0 {
			rowFor[k] = i
		}
	}
	return rowFor
}
