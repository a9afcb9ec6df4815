package discovery

import (
	"math"
	"sync"

	"autofeat/internal/frame"
	"autofeat/internal/sketch"
)

// MinHashSketch is a fixed-size signature of a column's distinct value
// set, supporting constant-time Jaccard and containment estimation — the
// technique Lazo (Castro Fernandez et al., ICDE 2019) uses to scale
// joinability discovery to large lakes. It is an alias of sketch.MinHash
// so the columnar lake format (internal/frame) and the matcher share one
// hash family: a sketch persisted in a columnar footer is bit-identical
// to the one Sketch would compute, which is what lets cold opens skip
// re-sketching entirely.
type MinHashSketch = sketch.MinHash

// DefaultSketchSize is the number of hash slots; 128 gives a standard
// error of about 1/sqrt(128) ≈ 0.09 on Jaccard estimates.
const DefaultSketchSize = sketch.DefaultSize

// Sketch builds a MinHash signature of the column's distinct join keys.
// k <= 0 uses DefaultSketchSize. A column carrying a persisted signature
// of at least k slots (loaded from a columnar lake footer) is served
// from that signature's prefix without rehashing any values — slot j is
// the same permutation at every sketch size, so the prefix is exact, not
// an approximation. Its Cardinality is the column's DistinctCount,
// counted from the cells like every other column's.
func Sketch(c *frame.Column, k int) *MinHashSketch {
	if k <= 0 {
		k = DefaultSketchSize
	}
	if st := c.Stats(); st != nil && st.Sketch != nil && len(st.Sketch.Mins) >= k {
		s := *st.Sketch.Prefix(k) // a copy: the persisted one is shared
		s.Cardinality = c.DistinctCount()
		return &s
	}
	s := sketch.New(k)
	seen := make(map[string]struct{}, 256)
	for i, n := 0, c.Len(); i < n; i++ {
		key, ok := c.Key(i)
		if !ok {
			continue
		}
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		s.AddHash(sketch.Hash64(key))
	}
	s.Cardinality = len(seen)
	return s
}

// hash64 is the index-local alias of the shared base hash; the LSH
// value-anchor buckets use it so anchors and signatures stay in one
// hash family.
func hash64(s string) uint64 { return sketch.Hash64(s) }

// remix is the index-local alias of the shared slot finaliser, used by
// multi-row band folding.
func remix(z uint64) uint64 { return sketch.Remix(z) }

// SketchMatcher is an alternative Matcher backend that estimates instance
// similarity from MinHash sketches instead of exact value sets, trading a
// little precision for constant-time column comparisons. It implements
// the same scoring contract as Matcher and can be swapped into
// DiscoverDRGWith.
type SketchMatcher struct {
	NameWeight     float64
	InstanceWeight float64
	SketchSize     int

	// mu guards cache: sketched matching runs under the discovery worker
	// pool and the indexed DRG path, so concurrent MatchColumns calls
	// memoise sketches for the same lake simultaneously.
	mu    sync.Mutex
	cache map[*frame.Column]*MinHashSketch
}

// NewSketchMatcher returns the sketch-backed matcher with the same
// weights as NewMatcher.
func NewSketchMatcher() *SketchMatcher {
	return &SketchMatcher{
		NameWeight:     0.4,
		InstanceWeight: 0.6,
		SketchSize:     DefaultSketchSize,
		cache:          make(map[*frame.Column]*MinHashSketch),
	}
}

// Weights reports the schema/instance evidence blend, satisfying the
// Scorer contract the indexed discovery path derives its LSH banding
// from.
func (m *SketchMatcher) Weights() (name, instance float64) {
	return m.NameWeight, m.InstanceWeight
}

// sketch returns the memoised signature for c, building it on first use.
// Safe for concurrent use.
func (m *SketchMatcher) sketch(c *frame.Column) *MinHashSketch {
	m.mu.Lock()
	s, ok := m.cache[c]
	m.mu.Unlock()
	if ok {
		return s
	}
	s = Sketch(c, m.SketchSize)
	m.mu.Lock()
	m.cache[c] = s
	m.mu.Unlock()
	return s
}

// SketchOf returns the memoised signature for c (building it on first
// use) — the hook a shared LSHIndex uses to reuse this matcher's sketch
// cache instead of sketching every column twice.
func (m *SketchMatcher) SketchOf(c *frame.Column) *MinHashSketch { return m.sketch(c) }

// Evict drops the memoised sketches of the given columns. Lake mutation
// paths (ReplaceTable, DropTable) call it so a stale sketch of a
// replaced column can never score against live data.
func (m *SketchMatcher) Evict(cols []*frame.Column) {
	m.mu.Lock()
	for _, c := range cols {
		delete(m.cache, c)
	}
	m.mu.Unlock()
}

// CachedSketches reports how many column sketches are memoised.
func (m *SketchMatcher) CachedSketches() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cache)
}

// MatchColumns scores a column pair like Matcher.MatchColumns but with
// sketched containment as the instance evidence.
func (m *SketchMatcher) MatchColumns(a, b *frame.Column) float64 {
	if !joinCandidate(a) || !joinCandidate(b) {
		return 0
	}
	name := NameSimilarity(a.Name(), b.Name())
	sa, sb := m.sketch(a), m.sketch(b)
	inst := math.Max(sa.Containment(sb), sb.Containment(sa))
	wsum := m.NameWeight + m.InstanceWeight
	if wsum == 0 {
		return 0
	}
	return (m.NameWeight*name + m.InstanceWeight*inst) / wsum
}
