// Package lake implements the resident data-lake session behind the
// public autofeat.Lake API and the long-lived discovery service
// (internal/serve). The paper separates an offline phase (profile the
// lake, build the Dataset Relation Graph) from an online phase (answer
// one augmentation query); a one-shot CLI process pays the offline phase
// on every invocation. A Lake pays it once:
//
//   - tables are loaded from disk exactly once and stay resident, so
//     per-column memos (distinct-value sets, minhash inputs) amortise
//     across every request that touches the column;
//   - the lake has one DRG, built under the matcher and threshold (or
//     the KFK constraints) fixed when the lake is opened, with
//     single-flight construction, so concurrent requests share one
//     build;
//   - one relational.KeyIndexCache is shared by every discovery run, so
//     the key→row indexes a join builds for a right-side table are
//     reused by every later request that joins against it;
//   - a lazily built discovery.LSHIndex serves matcher-path DRG builds
//     in near-linear time and is maintained incrementally by the
//     mutation API (RegisterTable / ReplaceTable / DropTable), which
//     patches the DRG and invalidates exactly the caches the mutated
//     table touched instead of flushing everything.
//
// All methods are safe for concurrent use; a Lake is designed to serve
// many overlapping Discover calls, with mutations serialised against
// in-flight DRG builds by a read-write lock.
package lake

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"autofeat/internal/core"
	"autofeat/internal/discovery"
	"autofeat/internal/errs"
	"autofeat/internal/frame"
	"autofeat/internal/graph"
	"autofeat/internal/ml"
	"autofeat/internal/relational"
	"autofeat/internal/telemetry"
)

// MatcherKind names a DRG construction strategy for the data-lake
// setting (schema matching, no declared constraints).
type MatcherKind string

const (
	// MatcherExact is the COMA-style composite matcher with exact
	// value-set containment — the paper's data-lake setting.
	MatcherExact MatcherKind = "exact"
	// MatcherSketched replaces exact value-set intersection with MinHash
	// sketches: constant-time column comparisons for large lakes.
	MatcherSketched MatcherKind = "sketched"
)

// DefaultThreshold is the paper's matcher threshold for the data-lake
// setting ("to encourage spurious, but not irrelevant, connections").
const DefaultThreshold = 0.55

// Format selects the on-disk table format a lake directory is opened
// with.
type Format string

// Supported lake formats.
const (
	// FormatAuto detects per table: a directory may mix *.csv and *.afc
	// files, and a packed (columnar) table shadows a CSV table of the
	// same name.
	FormatAuto Format = "auto"
	// FormatCSV reads only *.csv files — the legacy text path.
	FormatCSV Format = "csv"
	// FormatColumnar reads only *.afc files (see Pack and the format
	// specification in DESIGN.md §14).
	FormatColumnar Format = "columnar"
)

// settings is a Lake's configuration, fixed when the lake is opened:
// how its one DRG is built, and (at open time only) which table files
// are read.
type settings struct {
	matcher   MatcherKind
	threshold float64
	kfks      []discovery.KFK
	format    Format
}

// newSettings applies opts over the defaults: the exact matcher at
// DefaultThreshold, every table format.
func newSettings(opts []Option) settings {
	s := settings{matcher: MatcherExact, threshold: DefaultThreshold}
	for _, o := range opts {
		o(&s)
	}
	return s
}

// check reports a matcher or format no lake can be built with.
func (s settings) check() error {
	switch s.matcher {
	case MatcherExact, MatcherSketched, "":
	default:
		return errs.BadInput("autofeat: unknown matcher %q (supported: %s, %s)",
			s.matcher, MatcherExact, MatcherSketched)
	}
	switch s.format {
	case FormatAuto, FormatCSV, FormatColumnar, "":
	default:
		return errs.BadInput("autofeat: unknown lake format %q (supported: %s, %s, %s)",
			s.format, FormatAuto, FormatCSV, FormatColumnar)
	}
	return nil
}

// Check reports an option value no lake can be opened with: an unknown
// matcher or format, as an errs.ErrBadInput-matching error. Open and
// OpenLenient run it before reading anything; the service runs it on a
// registration before keeping it.
func Check(opts ...Option) error { return newSettings(opts).check() }

// Option configures a Lake when it is opened or created. A lake's
// settings never change afterwards: a caller that wants another matcher,
// threshold or constraint set over the same tables opens a second lake
// (New(l.Tables(), opts...) shares the frames).
type Option func(*settings)

// WithMatcher selects the schema-matching strategy used to build DRGs
// (MatcherExact by default).
func WithMatcher(kind MatcherKind) Option {
	return func(s *settings) { s.matcher = kind }
}

// WithThreshold sets the matcher threshold above which a column
// correspondence becomes a DRG edge (DefaultThreshold by default).
func WithThreshold(t float64) Option {
	return func(s *settings) { s.threshold = t }
}

// WithKFKs switches DRG construction to the curated benchmark setting:
// only the declared key–foreign-key constraints become (weight-1) edges
// and the matcher settings are ignored. An empty slice restores the
// matcher path.
func WithKFKs(constraints []discovery.KFK) Option {
	return func(s *settings) { s.kfks = constraints }
}

// WithFormat selects the table format Open reads (FormatAuto by
// default: columnar files shadow CSV files of the same table name).
func WithFormat(f Format) Option {
	return func(s *settings) { s.format = f }
}

// graphEntry is the lake's DRG with single-flight construction. done
// flips once the build completed, distinguishing a patchable entry from
// one that will simply build against the post-mutation tables.
type graphEntry struct {
	once sync.Once
	g    *graph.Graph
	err  error
	done bool
}

// Lake is a resident data-lake session: tables loaded once, one DRG
// built once, and one shared join-key index cache reused by every
// discovery run against it.
type Lake struct {
	dir    string
	set    settings
	tables []*frame.Frame
	byName map[string]*frame.Frame
	cache  *relational.KeyIndexCache

	// em and sm are the lake-lifetime scorers: one SketchMatcher serves
	// the build, the LSH index that borrows its sketch memo and every
	// mutation patch, and gives the mutation path one place to evict
	// stale sketches.
	em *discovery.Matcher
	sm *discovery.SketchMatcher

	// runMu orders DRG resolution (read side) against table mutation
	// (write side): the graph entry is fully built or untouched whenever
	// a mutation holds the write lock. tables/byName/idx/graph are
	// replaced, never mutated in place, so readers that already hold a
	// snapshot stay consistent.
	runMu sync.RWMutex
	graph *graphEntry

	// idxMu guards the lazy first build of idx under the read lock;
	// mutations access idx under the write lock (which excludes builds
	// entirely). Lock order: runMu before idxMu.
	idxMu sync.Mutex
	idx   *discovery.LSHIndex

	builds    atomic.Int64 // full DRG builds (not patches)
	mutations atomic.Int64 // RegisterTable/ReplaceTable/DropTable calls
}

// New wraps already-loaded tables as a Lake. The table order is
// preserved; later tables shadow earlier ones under the same name. An
// unknown matcher surfaces as an error from the first DRG build.
func New(tables []*frame.Frame, opts ...Option) *Lake {
	l := &Lake{
		set:    newSettings(opts),
		tables: tables,
		byName: make(map[string]*frame.Frame, len(tables)),
		cache:  relational.NewKeyIndexCache(),
		em:     discovery.NewMatcher(),
		sm:     discovery.NewSketchMatcher(),
		graph:  &graphEntry{},
	}
	for _, t := range tables {
		l.byName[t.Name()] = t
	}
	return l
}

// Open loads every table file in dir (sorted by table name) as the
// Lake's resident tables. The default FormatAuto reads both *.csv and
// columnar *.afc files, a columnar file shadowing a CSV table of the
// same name; WithFormat pins one format. An unknown matcher or format
// and a directory without table files are errors; a file that fails to
// parse aborts with an errs.ErrBadInput-matching error naming it.
func Open(dir string, opts ...Option) (*Lake, error) {
	set := newSettings(opts)
	if err := set.check(); err != nil {
		return nil, err
	}
	paths, err := lakePaths(dir, set.format)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("autofeat: no %s table files in %q", formatNoun(set.format), dir)
	}
	l, bad := load(dir, paths, false, opts)
	if len(bad) > 0 {
		return nil, bad[0]
	}
	return l, nil
}

// OpenLenient loads dir like Open but skips files that fail to parse
// instead of aborting the whole lake; each skipped file is reported as
// an errs.ErrBadInput-matching error. With every file corrupt the Lake
// has no tables and errors holds one entry per file.
func OpenLenient(dir string, opts ...Option) (l *Lake, errors []error) {
	set := newSettings(opts)
	if err := set.check(); err != nil {
		return nil, []error{err}
	}
	paths, err := lakePaths(dir, set.format)
	if err != nil {
		return nil, []error{errs.BadInput("autofeat: read dir %q: %w", dir, err)}
	}
	return load(dir, paths, true, opts)
}

// load reads the table files at paths into a Lake rooted at dir. A file
// that fails to parse is reported as an errs.ErrBadInput-matching error
// naming it; it aborts the load (nil Lake) unless lenient is set, in
// which case the file is skipped.
func load(dir string, paths []string, lenient bool, opts []Option) (*Lake, []error) {
	var tables []*frame.Frame
	var bad []error
	for _, p := range paths {
		read := frame.ReadCSVFile
		if strings.HasSuffix(p, frame.FormatExt) {
			read = frame.ReadColumnarFile
		}
		t, err := read(p)
		if err != nil {
			bad = append(bad, errs.BadInput("autofeat: read %q: %w", p, err))
			if !lenient {
				return nil, bad
			}
			continue
		}
		tables = append(tables, t)
	}
	l := New(tables, opts...)
	l.dir = dir
	return l, bad
}

// formatNoun names a format in error messages.
func formatNoun(f Format) string {
	switch f {
	case FormatCSV:
		return "CSV"
	case FormatColumnar:
		return "columnar"
	default:
		return "CSV or columnar"
	}
}

// lakePaths lists dir's table files for the given (checked) format,
// sorted by table name. Under FormatAuto a columnar file wins over a CSV
// file of the same basename, so a packed lake keeps working with its
// source CSVs still present.
func lakePaths(dir string, format Format) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	wantCSV, wantColr := format != FormatColumnar, format != FormatCSV
	byTable := make(map[string]string)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		switch {
		case wantColr && strings.HasSuffix(name, frame.FormatExt):
			table := strings.TrimSuffix(name, frame.FormatExt)
			byTable[table] = filepath.Join(dir, name)
		case wantCSV && strings.HasSuffix(name, ".csv"):
			table := strings.TrimSuffix(name, ".csv")
			if _, packed := byTable[table]; !packed {
				byTable[table] = filepath.Join(dir, name)
			}
		}
	}
	tables := make([]string, 0, len(byTable))
	for t := range byTable {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	paths := make([]string, len(tables))
	for i, t := range tables {
		paths[i] = byTable[t]
	}
	return paths, nil
}

// Pack converts a CSV lake directory in place: every *.csv table is
// rewritten as a columnar *.afc file (atomically, tmp+rename) alongside
// it. The source CSVs are left untouched — FormatAuto prefers the packed
// file, so the directory serves columnar immediately while remaining
// usable as a CSV lake via WithFormat(FormatCSV). Tables that already
// have a columnar file are re-packed from CSV. Returns the number of
// tables packed.
func Pack(dir string) (int, error) {
	paths, err := lakePaths(dir, FormatCSV)
	if err != nil {
		return 0, err
	}
	if len(paths) == 0 {
		return 0, fmt.Errorf("autofeat: no CSV files to pack in %q", dir)
	}
	for i, p := range paths {
		t, err := frame.ReadCSVFile(p)
		if err != nil {
			return i, errs.BadInput("autofeat: pack %q: %w", p, err)
		}
		if err := frame.WriteColumnarFile(t, filepath.Join(dir, t.Name()+frame.FormatExt)); err != nil {
			return i, fmt.Errorf("autofeat: pack %q: %w", p, err)
		}
	}
	return len(paths), nil
}

// Dir returns the directory the Lake was opened from ("" for in-memory
// lakes).
func (l *Lake) Dir() string { return l.dir }

// Tables returns the resident tables in load order. The slice is shared;
// treat it as read-only (mutations replace it, they never write into it).
func (l *Lake) Tables() []*frame.Frame {
	l.runMu.RLock()
	defer l.runMu.RUnlock()
	return l.tables
}

// Table returns the resident table with the given name, or nil.
func (l *Lake) Table(name string) *frame.Frame {
	l.runMu.RLock()
	defer l.runMu.RUnlock()
	return l.byName[name]
}

// KeyCache returns the Lake's shared join-key index cache — the one
// every discovery run against this Lake reuses.
func (l *Lake) KeyCache() *relational.KeyIndexCache { return l.cache }

// CacheStats reports the shared key-index cache's cumulative hits and
// misses. A warm lake shows hits rising run over run.
func (l *Lake) CacheStats() (hits, misses int64) { return l.cache.Stats() }

// CacheSize reports how many join-key indexes are resident in the
// shared cache — the per-lake cache-size gauge the service exports.
func (l *Lake) CacheSize() int { return l.cache.Len() }

// DRG returns the Lake's Dataset Relation Graph, built under the
// settings the lake was opened with. It is built once, with
// single-flight construction: concurrent first callers share one build,
// and later callers get the same graph.
func (l *Lake) DRG() (*graph.Graph, error) {
	g, _, err := l.drg()
	return g, err
}

// drg returns the lake's graph, reporting whether it was warm: false
// only for the call that built it. The whole resolution runs under the
// read half of runMu, so a mutation holding the write lock is
// guaranteed that the entry is either fully built (patchable) or has no
// builder in flight (it will build against the mutated tables).
func (l *Lake) drg() (g *graph.Graph, warm bool, err error) {
	l.runMu.RLock()
	defer l.runMu.RUnlock()
	e := l.graph
	warm = true
	e.once.Do(func() {
		warm = false
		e.g, e.err = l.build()
		e.done = true
	})
	return e.g, warm, e.err
}

// build constructs the DRG. Matcher-path builds go through the lake's
// LSH index whenever the banding derivation covers the scorer at the
// lake's threshold; otherwise they fall back to the quadratic reference
// path. Callers hold the read half of runMu.
func (l *Lake) build() (*graph.Graph, error) {
	l.builds.Add(1)
	if len(l.set.kfks) > 0 {
		return discovery.BuildBenchmarkDRG(l.tables, l.set.kfks)
	}
	if err := l.set.check(); err != nil {
		return nil, err
	}
	scorer := l.scorer()
	idx := l.ensureIndex()
	if idx.CoversScorer(l.set.threshold, scorer) {
		return discovery.DiscoverDRGIndexed(l.tables, l.set.threshold, scorer, idx)
	}
	return discovery.DiscoverDRGQuadratic(l.tables, l.set.threshold, scorer)
}

// scorer is the lake-lifetime scorer of the lake's (checked) matcher.
func (l *Lake) scorer() discovery.Scorer {
	if l.set.matcher == MatcherSketched {
		return l.sm
	}
	return l.em
}

// ensureIndex lazily builds the lake's LSH index over the current
// tables, sharing the sketched matcher's signature memo. Callers hold
// at least the read half of runMu; idxMu serialises the first build so
// concurrent DRG requests don't index the lake twice.
func (l *Lake) ensureIndex() *discovery.LSHIndex {
	l.idxMu.Lock()
	defer l.idxMu.Unlock()
	if l.idx == nil {
		idx := discovery.NewLSHIndex(0, -1)
		idx.Sketcher = l.sm.SketchOf
		for _, t := range l.tables {
			idx.Add(t)
		}
		l.idx = idx
	}
	return l.idx
}

// DRGBuilds reports how many full DRG constructions the lake has run.
// Incremental mutation patches the graph without rebuilding, so this
// counter staying flat across a mutation is the observable proof that
// the graph was patched, not rebuilt (asserted by the cache-identity
// test).
func (l *Lake) DRGBuilds() int64 { return l.builds.Load() }

// Mutations reports how many table mutations (register, replace, drop)
// the lake has applied.
func (l *Lake) Mutations() int64 { return l.mutations.Load() }

// IndexStats describes the lake's LSH index for introspection. Built is
// false until the first matcher-path DRG build (the index is lazy).
type IndexStats struct {
	Built bool
	discovery.IndexStats
}

// IndexStats reports the current shape of the lake's LSH index.
func (l *Lake) IndexStats() IndexStats {
	l.runMu.RLock()
	defer l.runMu.RUnlock()
	l.idxMu.Lock()
	defer l.idxMu.Unlock()
	if l.idx == nil {
		return IndexStats{}
	}
	return IndexStats{Built: true, IndexStats: l.idx.Stats()}
}

// RegisterTable adds a new table to the resident lake: the LSH index
// gains only the new table's entries and the DRG is patched — the new
// node plus its verified candidate edges — without rebuilding, so every
// KeyIndexCache entry survives untouched.
func (l *Lake) RegisterTable(f *frame.Frame) error {
	if err := checkNamed(f); err != nil {
		return err
	}
	l.runMu.Lock()
	defer l.runMu.Unlock()
	if _, ok := l.byName[f.Name()]; ok {
		return errs.BadInput("autofeat: table %q already registered (use ReplaceTable)", f.Name())
	}
	l.setTables(appendTable(l.tables, f))
	if l.idx != nil {
		l.idx.Add(f)
	}
	l.patchGraph(func(g *graph.Graph) (*graph.Graph, error) {
		ng := g.Clone()
		ng.AddTable(f)
		if err := l.patchEdges(ng, f); err != nil {
			return nil, err
		}
		return ng, nil
	})
	l.mutations.Add(1)
	return nil
}

// ReplaceTable swaps the resident table with the same name for f. The
// old table's sketches, LSH entries and memoised join-key indexes are
// evicted (stale data must never score or join again); the DRG is
// patched: the old node's edges go, the new node's verified candidate
// edges come in.
func (l *Lake) ReplaceTable(f *frame.Frame) error {
	if err := checkNamed(f); err != nil {
		return err
	}
	l.runMu.Lock()
	defer l.runMu.Unlock()
	old, ok := l.byName[f.Name()]
	if !ok {
		return errs.BadInput("autofeat: table %q not registered (use RegisterTable)", f.Name())
	}
	tables := make([]*frame.Frame, len(l.tables))
	for i, t := range l.tables {
		if t == old {
			tables[i] = f
		} else {
			tables[i] = t
		}
	}
	l.setTables(tables)
	l.evict(old)
	if l.idx != nil {
		l.idx.Remove(old.Name())
		l.idx.Add(f)
	}
	l.patchGraph(func(g *graph.Graph) (*graph.Graph, error) {
		ng := g.Clone()
		ng.RemoveTable(old.Name())
		ng.AddTable(f)
		if err := l.patchEdges(ng, f); err != nil {
			return nil, err
		}
		return ng, nil
	})
	l.mutations.Add(1)
	return nil
}

// DropTable removes the named table from the resident lake, its entries
// from the LSH index and the sketch memo, its join-key indexes from the
// shared cache, and its node (with all incident edges) from the DRG.
func (l *Lake) DropTable(name string) error {
	l.runMu.Lock()
	defer l.runMu.Unlock()
	old, ok := l.byName[name]
	if !ok {
		return errs.BadInput("autofeat: table %q not registered", name)
	}
	tables := make([]*frame.Frame, 0, len(l.tables)-1)
	for _, t := range l.tables {
		if t != old {
			tables = append(tables, t)
		}
	}
	l.setTables(tables)
	delete(l.byName, name)
	l.evict(old)
	if l.idx != nil {
		l.idx.Remove(name)
	}
	l.patchGraph(func(g *graph.Graph) (*graph.Graph, error) {
		ng := g.Clone()
		ng.RemoveTable(name)
		return ng, nil
	})
	l.mutations.Add(1)
	return nil
}

// checkNamed rejects a table mutation without a named frame.
func checkNamed(f *frame.Frame) error {
	if f == nil || f.Name() == "" {
		return errs.BadInput("autofeat: mutation requires a named table")
	}
	return nil
}

// setTables installs the new table slice and rebuilds byName around it.
// Callers hold the write half of runMu.
func (l *Lake) setTables(tables []*frame.Frame) {
	l.tables = tables
	byName := make(map[string]*frame.Frame, len(tables))
	for _, t := range tables {
		byName[t.Name()] = t
	}
	l.byName = byName
}

func appendTable(tables []*frame.Frame, f *frame.Frame) []*frame.Frame {
	out := make([]*frame.Frame, len(tables)+1)
	copy(out, tables)
	out[len(tables)] = f
	return out
}

// evict invalidates exactly the caches that referenced the outgoing
// table: its memoised sketches and its join-key indexes. Nothing keyed
// by any other column is touched.
func (l *Lake) evict(old *frame.Frame) {
	cols := old.Columns()
	l.sm.Evict(cols)
	l.cache.InvalidateColumns(cols)
}

// patchGraph applies patch to the lake's DRG if it was built. An entry
// whose build never ran is left alone: with the write lock held no
// builder is in flight, so it builds against the mutated tables when
// next requested. A failed build is reset so the next request retries
// against the new tables. The patched graph replaces the entry; the old
// graph object is never mutated, so requests that already hold it keep
// a consistent snapshot. Callers hold the write half of runMu.
func (l *Lake) patchGraph(patch func(*graph.Graph) (*graph.Graph, error)) {
	e := l.graph
	switch {
	case !e.done:
		return
	case e.err != nil:
		l.graph = &graphEntry{}
		return
	}
	ne := &graphEntry{done: true}
	ne.once.Do(func() {})
	if len(l.set.kfks) > 0 {
		// KFK graphs carry no discovered edges; rebuilding from the
		// declared constraints is as cheap as patching and handles
		// constraints that reference the mutated table.
		ne.g, ne.err = discovery.BuildBenchmarkDRG(l.tables, l.set.kfks)
	} else {
		ne.g, ne.err = patch(e.g)
	}
	l.graph = ne
}

// patchEdges adds every above-threshold edge between the newly
// installed table f and the rest of the lake to g, scored by the lake's
// matcher and threshold. When the LSH index covers the scorer the
// candidates come from the index (cost proportional to f's bucket
// occupancy); otherwise f is scored against every other table's
// candidate columns — still linear in the lake, never quadratic.
// Callers hold the write half of runMu, and the graph was built, so the
// matcher is known.
func (l *Lake) patchEdges(g *graph.Graph, f *frame.Frame) error {
	scorer, threshold := l.scorer(), l.set.threshold
	addEdge := func(other string, co, cf *frame.Column) error {
		score := scorer.MatchColumns(co, cf)
		if score < threshold {
			return nil
		}
		return g.AddEdge(graph.Edge{
			A: other, ColA: co.Name(),
			B: f.Name(), ColB: cf.Name(),
			Weight: score,
		})
	}
	if l.idx != nil && l.idx.Has(f.Name()) && l.idx.CoversScorer(threshold, scorer) {
		for _, p := range l.idx.Candidates(f.Name()) {
			// Orient the pair so the pre-existing table is the A side.
			other, co, cf := p.TableA, p.ColA, p.ColB
			if other == f.Name() {
				other, co, cf = p.TableB, p.ColB, p.ColA
			}
			if other == f.Name() || !g.HasNode(other) {
				continue
			}
			if err := addEdge(other, co, cf); err != nil {
				return err
			}
		}
		return nil
	}
	for _, t := range l.tables {
		if t.Name() == f.Name() || !g.HasNode(t.Name()) {
			continue
		}
		for _, co := range t.Columns() {
			for _, cf := range f.Columns() {
				if err := addEdge(t.Name(), co, cf); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// NewDiscovery prepares a core discovery run over the Lake's DRG,
// wiring in the shared key-index cache — the two-step prepare/run
// alternative to Discover.
func (l *Lake) NewDiscovery(base, label string, cfg core.Config) (*core.Discovery, error) {
	g, _, err := l.drg()
	if err != nil {
		return nil, err
	}
	return l.discoveryOn(g, base, label, cfg)
}

// discoveryOn builds a core.Discovery over g with the Lake's shared
// cache injected (unless the caller supplied its own).
func (l *Lake) discoveryOn(g *graph.Graph, base, label string, cfg core.Config) (*core.Discovery, error) {
	if cfg.KeyCache == nil {
		cfg.KeyCache = l.cache
	}
	return core.New(g, base, label, cfg)
}

// AutoTune grid-searches τ and κ around cfg over the Lake's DRG and
// returns the best configuration by the factory's model accuracy; see
// core.AutoTune.
// Empty grids use τ ∈ {0.5, 0.65, 0.8} and κ ∈ {10, 15, 20}. A nil
// cfg.KeyCache is filled with the Lake's shared cache, so the grid runs
// reuse each other's join-key indexes and every run after the first
// reports a warm SelectionTime.
func (l *Lake) AutoTune(base, label string, cfg core.Config, factory ml.Factory, taus []float64, kappas []int) (*core.TuneOutcome, error) {
	g, _, err := l.drg()
	if err != nil {
		return nil, err
	}
	if cfg.KeyCache == nil {
		cfg.KeyCache = l.cache
	}
	return core.AutoTune(g, base, label, cfg, factory, taus, kappas)
}

// Request describes one discovery run against a Lake — the unit of work
// the long-lived service schedules. The zero value of every optional
// field means "use the default".
type Request struct {
	// Base names the base table node; Label the label column inside it.
	Base  string
	Label string
	// Model, when non-empty, names the model trained on the top-k ranked
	// paths ("lightgbm", "xgboost", ...). Empty skips model training and
	// returns the ranking alone.
	Model string
	// Config overrides the discovery hyper-parameters; nil uses
	// core.DefaultConfig(). Telemetry, Progress, Logger, budgets and
	// Workers all pass through.
	Config *core.Config
}

// Result is the outcome of one Lake.Discover call.
type Result struct {
	// Ranking is the discovery output (always present).
	Ranking *core.Ranking
	// Augment is the model-evaluation outcome; nil when Request.Model
	// was empty.
	Augment *core.AugmentResult
	// Manifest is the run's provenance record, with evaluation records
	// attached when a model ran.
	Manifest *core.Manifest
	// GraphNodes and GraphEdges describe the DRG the run used.
	GraphNodes, GraphEdges int
	// WarmGraph reports that the Lake's DRG was already built instead of
	// being built by this request — the offline phase was skipped
	// entirely. It is false only for the request that built the graph.
	WarmGraph bool
	// CacheHits and CacheMisses are the Lake-wide cumulative key-index
	// cache counters after this run.
	CacheHits, CacheMisses int64
}

// Discover runs one feature-discovery request against the Lake: DRG
// (built once), BFS ranking, provenance manifest, and — when a model is
// named — top-k evaluation. ctx cancellation degrades to a Partial
// ranking exactly as in Discovery.RunContext; it does not error.
func (l *Lake) Discover(ctx context.Context, req Request) (*Result, error) {
	g, warm, err := l.drg()
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	if req.Config != nil {
		cfg = *req.Config
	}
	var factory ml.Factory
	if req.Model != "" {
		f, ok := ml.FactoryByName(req.Model)
		if !ok {
			return nil, errs.BadInput("autofeat: unknown model %q", req.Model)
		}
		factory = f
	}
	d, err := l.discoveryOn(g, req.Base, req.Label, cfg)
	if err != nil {
		return nil, err
	}
	ranking, err := d.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Ranking:    ranking,
		GraphNodes: g.NumNodes(),
		GraphEdges: g.NumEdges(),
		WarmGraph:  warm,
	}
	res.Manifest = d.Manifest(ranking)
	if sc, ok := telemetry.SpanContextFrom(ctx); ok {
		// Stamp the request's trace identity into the provenance record
		// for log<->trace<->manifest correlation; untraced runs leave the
		// field absent, keeping cold manifests bit-identical.
		res.Manifest.TraceID = sc.Trace.String()
	}
	if req.Model != "" {
		aug, err := d.EvaluateRankingContext(ctx, ranking, factory)
		if err != nil {
			return nil, err
		}
		res.Augment = aug
		res.Manifest.AttachEvaluation(aug)
	}
	res.CacheHits, res.CacheMisses = l.cache.Stats()
	return res, nil
}
