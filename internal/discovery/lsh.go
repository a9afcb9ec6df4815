package discovery

// Banded LSH index over per-column MinHash signatures — the Lazo-style
// (Castro Fernandez et al., ICDE 2019) candidate generator that replaces
// quadratic all-pairs column scoring in DRG discovery. The index is a
// *candidate* structure only: every surviving pair is re-scored by the
// real matcher, so the indexed DRG is edge-identical to the quadratic
// one as long as the candidate set is a superset of edge-forming pairs.
//
// Superset argument (see DESIGN.md §11 for the full derivation). An
// edge needs score ≥ τ with score = (wn·name + wi·inst)/(wn+wi). When
// instMin = (τ·(wn+wi) − wn)/wi is positive, name evidence alone cannot
// form an edge (name ≤ 1), so every edge-forming pair has inst > 0:
//
//   - Sketched matcher: inst is Lazo containment, which is a monotone
//     function of the estimated Jaccard Ĵ; inst > 0 ⇒ Ĵ > 0 ⇒ at least
//     one signature slot matches ⇒ the pair collides in that slot's
//     band. Because the Lazo rescaling can lift an arbitrarily small
//     positive Ĵ above instMin under cardinality skew, the only sound
//     banding is rows=1 (every slot its own band) — PlanBands derives
//     exactly that from the threshold and weights.
//   - Exact matcher: inst is sampled-set containment; inst > 0 ⇒ the
//     two samples share a value ⇒ the pair collides in that value's
//     anchor bucket (the index anchors the same first-N-distinct sample
//     the matcher uses, so the matcher's sample is always a subset of
//     the indexed anchors when the caps line up).
//
// Exact-name-match pairs additionally collide in a normalised-name
// bucket — the safety net the issue requires, and the only evidence
// channel left when a pair has zero instance overlap.

import (
	"sort"

	"autofeat/internal/frame"
)

// PlanBands derives the LSH banding from the matcher threshold and
// evidence weights: the (bands, rows) split of a k-slot signature that
// guarantees every pair able to reach threshold collides in some band.
//
// The derivation: a pair can only form an edge if its instance evidence
// reaches instMin = (threshold·(nameW+instW) − nameW)/instW. Under the
// Lazo containment rescaling, any positive estimated Jaccard — even a
// single matching slot out of k — can exceed instMin when the column
// cardinalities are skewed, so no multi-row band is sound: the unique
// safe plan is rows=1, bands=k (a pair with any matching slot collides
// by pigeonhole). When instMin ≤ 0, name evidence alone can cross the
// threshold and pairs with zero instance overlap form edges without any
// signature collision — no banding covers that, so ok is false and the
// caller must fall back to quadratic scoring.
func PlanBands(k int, threshold, nameW, instW float64) (bands, rows int, ok bool) {
	wsum := nameW + instW
	if k <= 0 || wsum <= 0 || instW <= 0 {
		return 0, 0, false
	}
	instMin := (threshold*wsum - nameW) / instW
	if instMin <= 0 {
		return 0, 0, false
	}
	return k, 1, true
}

// CandidatePair is one cross-table column pair surfaced by the index.
// The pair is unordered; callers orient it against their own table
// ordering before scoring.
type CandidatePair struct {
	TableA string
	ColA   *frame.Column
	TableB string
	ColB   *frame.Column
}

// IndexStats summarises the index shape for telemetry and debugging.
type IndexStats struct {
	Tables  int // indexed tables
	Columns int // indexed join-candidate columns
	Bands   int // slot bands (== sketch size at the rows=1 plan)
	Rows    int // slots per band
	Slot    int // occupied slot-band buckets
	Anchor  int // occupied value-anchor buckets
	Name    int // occupied normalised-name buckets
}

// colEntry is one indexed column with the bucket keys it occupies, so
// Remove can unlink it without scanning the whole index.
type colEntry struct {
	table    string
	col      *frame.Column
	sketch   *MinHashSketch
	bandKeys []uint64 // one per band
	anchors  []uint64 // hashes of the sampled distinct values
	nameKey  string   // normalised column name ("" = not name-indexed)
}

// LSHIndex is a banded LSH index over per-column MinHash signatures,
// with two auxiliary evidence channels: value-anchor buckets (an
// inverted index over the matcher's sampled distinct values, covering
// the exact matcher) and normalised-name buckets (covering exact name
// matches). Add/Remove maintain only the touched buckets, which is what
// makes incremental lake mutation cheap. Not safe for concurrent
// mutation; the lake serialises access under its own lock.
type LSHIndex struct {
	k         int // signature slots; bands*rows == k at the rows=1 plan
	bands     int
	rows      int
	anchorCap int // max anchors per column; 0 = unlimited

	// Sketcher overrides how column signatures are built (e.g. to share
	// a SketchMatcher's memoised sketches). Nil uses Sketch(c, k).
	Sketcher func(*frame.Column) *MinHashSketch

	slot    []map[uint64][]*colEntry // per-band buckets
	anchor  map[uint64][]*colEntry
	name    map[string][]*colEntry
	entries map[string][]*colEntry // table -> its entries
}

// NewLSHIndex creates an empty index. k ≤ 0 uses DefaultSketchSize;
// anchorCap < 0 uses DefaultMaxValues (the exact matcher's sampling
// cap, so the matcher's sample is always a subset of the anchors);
// anchorCap == 0 anchors every distinct value.
func NewLSHIndex(k, anchorCap int) *LSHIndex {
	if k <= 0 {
		k = DefaultSketchSize
	}
	if anchorCap < 0 {
		anchorCap = DefaultMaxValues
	}
	x := &LSHIndex{
		k:         k,
		bands:     k,
		rows:      1,
		anchorCap: anchorCap,
		anchor:    make(map[uint64][]*colEntry),
		name:      make(map[string][]*colEntry),
		entries:   make(map[string][]*colEntry),
	}
	x.slot = make([]map[uint64][]*colEntry, x.bands)
	for i := range x.slot {
		x.slot[i] = make(map[uint64][]*colEntry)
	}
	return x
}

// Covers reports whether the index guarantees candidate-superset
// coverage for the given threshold and evidence weights (the PlanBands
// derivation). When false, callers must score quadratically.
func (x *LSHIndex) Covers(threshold, nameW, instW float64) bool {
	_, _, ok := PlanBands(x.k, threshold, nameW, instW)
	return ok
}

// CoversScorer reports whether the index guarantees candidate-superset
// coverage for a concrete scorer at the given threshold: the banding
// must be derivable from the scorer's weights, the scorer's sampling
// cap must not exceed the index anchor cap (exact matcher), and the
// scorer's sketch size must not exceed the index signature size
// (sketched matcher). Unknown scorer implementations get no guarantee.
func (x *LSHIndex) CoversScorer(threshold float64, s Scorer) bool {
	nameW, instW := s.Weights()
	if !x.Covers(threshold, nameW, instW) {
		return false
	}
	switch m := s.(type) {
	case *Matcher:
		// The matcher samples the first m.MaxValues distinct values in
		// row order and the index anchors the first anchorCap: samples
		// are prefixes of each other, so cap(index) ≥ cap(matcher)
		// makes the matcher's sample a subset of the anchors.
		return x.anchorCap == 0 || (m.MaxValues > 0 && m.MaxValues <= x.anchorCap)
	case *SketchMatcher:
		// Slot j is the same permutation at every sketch size, so the
		// index sees every slot match the matcher can see iff it keeps
		// at least as many slots.
		return m.SketchSize <= x.k
	}
	return false
}

// Add indexes every join-candidate column of the table (same prefilter
// as the quadratic path, so the two builds consider identical columns).
// Re-adding a table name replaces its previous entries.
func (x *LSHIndex) Add(f *frame.Frame) {
	if _, ok := x.entries[f.Name()]; ok {
		x.Remove(f.Name())
	}
	for _, c := range f.Columns() {
		if !joinCandidate(c) {
			continue
		}
		x.addColumn(f.Name(), c)
	}
	if _, ok := x.entries[f.Name()]; !ok {
		x.entries[f.Name()] = nil // remember the table even if no column qualifies
	}
}

func (x *LSHIndex) addColumn(table string, c *frame.Column) {
	var s *MinHashSketch
	if x.Sketcher != nil {
		s = x.Sketcher(c)
	} else {
		s = Sketch(c, x.k)
	}
	e := &colEntry{table: table, col: c, sketch: s}
	e.bandKeys = make([]uint64, x.bands)
	for b := 0; b < x.bands; b++ {
		key := bandKey(s.Mins, b, x.rows)
		e.bandKeys[b] = key
		x.slot[b][key] = append(x.slot[b][key], e)
	}
	sample := sampleSet(c, x.anchorCap)
	e.anchors = make([]uint64, 0, len(sample))
	for k := range sample {
		e.anchors = append(e.anchors, hash64(k))
	}
	sort.Slice(e.anchors, func(i, j int) bool { return e.anchors[i] < e.anchors[j] })
	for _, h := range e.anchors {
		x.anchor[h] = append(x.anchor[h], e)
	}
	if n := normalizeName(c.Name()); n != "" {
		e.nameKey = n
		x.name[n] = append(x.name[n], e)
	}
	x.entries[table] = append(x.entries[table], e)
}

// Remove unlinks every entry of the named table from its buckets. A
// table not in the index is a no-op.
func (x *LSHIndex) Remove(table string) {
	es, ok := x.entries[table]
	if !ok {
		return
	}
	delete(x.entries, table)
	for _, e := range es {
		for b, key := range e.bandKeys {
			x.slot[b][key] = dropEntry(x.slot[b][key], e)
			if len(x.slot[b][key]) == 0 {
				delete(x.slot[b], key)
			}
		}
		for _, h := range e.anchors {
			x.anchor[h] = dropEntry(x.anchor[h], e)
			if len(x.anchor[h]) == 0 {
				delete(x.anchor, h)
			}
		}
		if e.nameKey != "" {
			x.name[e.nameKey] = dropEntry(x.name[e.nameKey], e)
			if len(x.name[e.nameKey]) == 0 {
				delete(x.name, e.nameKey)
			}
		}
	}
}

func dropEntry(es []*colEntry, e *colEntry) []*colEntry {
	for i, v := range es {
		if v == e {
			return append(es[:i], es[i+1:]...)
		}
	}
	return es
}

// Has reports whether the named table is indexed.
func (x *LSHIndex) Has(table string) bool {
	_, ok := x.entries[table]
	return ok
}

// Len returns the number of indexed join-candidate columns.
func (x *LSHIndex) Len() int {
	n := 0
	for _, es := range x.entries {
		n += len(es)
	}
	return n
}

// Stats returns the current index shape.
func (x *LSHIndex) Stats() IndexStats {
	st := IndexStats{
		Tables:  len(x.entries),
		Columns: x.Len(),
		Bands:   x.bands,
		Rows:    x.rows,
		Anchor:  len(x.anchor),
		Name:    len(x.name),
	}
	for _, m := range x.slot {
		st.Slot += len(m)
	}
	return st
}

// pairKey canonicalises an entry pair for deduplication: ordered by
// (table, column name), which is unique per indexed column.
type pairKey struct{ a, b *colEntry }

func canonical(a, b *colEntry) (x, y *colEntry) {
	if b.table < a.table || (b.table == a.table && b.col.Name() < a.col.Name()) {
		return b, a
	}
	return a, b
}

// Candidates returns every deduplicated cross-table candidate pair
// involving the named table: the union of its columns' slot-band,
// value-anchor and name-bucket collisions. This is the incremental
// probe the lake mutation path uses — cost is proportional to the
// table's bucket occupancy, not to the lake size.
func (x *LSHIndex) Candidates(table string) []CandidatePair {
	es, ok := x.entries[table]
	if !ok {
		return nil
	}
	seen := make(map[pairKey]bool)
	var out []CandidatePair
	add := func(a, b *colEntry) {
		if a.table == b.table {
			return
		}
		ca, cb := canonical(a, b)
		k := pairKey{ca, cb}
		if seen[k] {
			return
		}
		seen[k] = true
		out = append(out, CandidatePair{
			TableA: ca.table, ColA: ca.col,
			TableB: cb.table, ColB: cb.col,
		})
	}
	for _, e := range es {
		for b, key := range e.bandKeys {
			for _, o := range x.slot[b][key] {
				add(e, o)
			}
		}
		for _, h := range e.anchors {
			for _, o := range x.anchor[h] {
				add(e, o)
			}
		}
		if e.nameKey != "" {
			for _, o := range x.name[e.nameKey] {
				add(e, o)
			}
		}
	}
	return out
}

// AllCandidates returns every deduplicated cross-table candidate pair
// in the index — the full-lake candidate enumeration the indexed DRG
// build verifies. Cost is proportional to total bucket co-occupancy
// (near-linear on lakes whose joinable columns cluster), not to the
// quadratic number of table pairs.
func (x *LSHIndex) AllCandidates() []CandidatePair {
	seen := make(map[pairKey]bool)
	var out []CandidatePair
	collect := func(bucket []*colEntry) {
		for i := 0; i < len(bucket); i++ {
			for j := i + 1; j < len(bucket); j++ {
				a, b := canonical(bucket[i], bucket[j])
				if a.table == b.table {
					continue
				}
				k := pairKey{a, b}
				if seen[k] {
					continue
				}
				seen[k] = true
				out = append(out, CandidatePair{
					TableA: a.table, ColA: a.col,
					TableB: b.table, ColB: b.col,
				})
			}
		}
	}
	for _, m := range x.slot {
		for _, bucket := range m {
			collect(bucket)
		}
	}
	for _, bucket := range x.anchor {
		collect(bucket)
	}
	for _, bucket := range x.name {
		collect(bucket)
	}
	return out
}

// bandKey folds the band's signature slots into one bucket key. At the
// rows=1 plan this is just the slot value (the per-band maps already
// namespace bands), but the fold keeps the structure correct for any
// future multi-row plan.
func bandKey(mins []uint64, band, rows int) uint64 {
	if rows == 1 {
		return mins[band]
	}
	h := uint64(band)*0x9e3779b97f4a7c15 + 1
	for r := 0; r < rows; r++ {
		h = remix(h ^ mins[band*rows+r])
	}
	return h
}
