// Package discovery implements the dataset-discovery substrate of the
// reproduction. The paper builds its Dataset Relation Graph with COMA (via
// the Valentine benchmark suite); AutoFeat is explicitly matcher-agnostic —
// "any algorithm which outputs a similarity score can be used". This
// package provides a COMA-style composite matcher that combines:
//
//   - schema-level evidence: Levenshtein similarity and trigram Jaccard
//     similarity over normalised column names, and
//   - instance-level evidence: value-set containment between columns
//     (a Lazo/JOSIE-style joinability signal).
//
// The composite score lands in [0,1]; matches above a threshold become DRG
// edges, exactly reproducing the paper's data lake setting (threshold 0.55,
// "to encourage spurious, but not irrelevant, connections").
package discovery

import (
	"sort"
	"strings"

	"autofeat/internal/frame"
	"autofeat/internal/graph"
)

// Matcher scores column pairs. The zero value is not usable; call
// NewMatcher for the COMA-style defaults.
type Matcher struct {
	// NameWeight and InstanceWeight blend schema- and instance-level
	// evidence. They are renormalised when instance evidence is
	// unavailable (e.g. incompatible kinds).
	NameWeight     float64
	InstanceWeight float64
	// MaxValues caps how many distinct values per column feed the
	// containment estimate, bounding matcher cost on wide lakes.
	MaxValues int
}

// DefaultMaxValues is the default cap on distinct values sampled per
// column for containment estimation. The LSHIndex anchors the same
// sample, so the two stay in lockstep by construction.
const DefaultMaxValues = 2000

// NewMatcher returns a matcher with COMA-like defaults: names and
// instances weighted 40/60, at most DefaultMaxValues values sampled per
// column.
func NewMatcher() *Matcher {
	return &Matcher{NameWeight: 0.4, InstanceWeight: 0.6, MaxValues: DefaultMaxValues}
}

// Weights reports the schema/instance evidence blend, satisfying the
// Scorer contract the indexed discovery path derives its LSH banding
// from.
func (m *Matcher) Weights() (name, instance float64) {
	return m.NameWeight, m.InstanceWeight
}

// Scorer is the pairwise column-scoring contract DRG discovery builds
// on: a score in [0,1] per column pair, plus the evidence weights the
// indexed path needs to derive a sound LSH banding (PlanBands). Both
// Matcher and SketchMatcher implement it.
type Scorer interface {
	MatchColumns(a, b *frame.Column) float64
	Weights() (name, instance float64)
}

// NameSimilarity scores two column names in [0,1] as the mean of
// normalised Levenshtein similarity and trigram Jaccard similarity over
// lower-cased, separator-stripped names.
func NameSimilarity(a, b string) float64 {
	na, nb := normalizeName(a), normalizeName(b)
	if na == "" || nb == "" {
		return 0
	}
	if na == nb {
		return 1
	}
	return (levenshteinSim(na, nb) + trigramJaccard(na, nb)) / 2
}

func normalizeName(s string) string {
	s = strings.ToLower(s)
	var b strings.Builder
	for _, r := range s {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
			b.WriteRune(r)
		}
	}
	return b.String()
}

// levenshteinSim is 1 - editDistance/maxLen.
func levenshteinSim(a, b string) float64 {
	d := levenshtein(a, b)
	m := len(a)
	if len(b) > m {
		m = len(b)
	}
	if m == 0 {
		return 1
	}
	return 1 - float64(d)/float64(m)
}

// levenshtein computes the classic edit distance with two rolling rows.
func levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// trigramJaccard is the Jaccard similarity of the character-trigram sets,
// with names shorter than three characters falling back to bigram/unigram
// granularity.
func trigramJaccard(a, b string) float64 {
	n := 3
	if len(a) < 3 || len(b) < 3 {
		n = 1
	}
	sa, sb := ngrams(a, n), ngrams(b, n)
	if len(sa) == 0 || len(sb) == 0 {
		return 0
	}
	inter := 0
	for g := range sa {
		if _, ok := sb[g]; ok {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	return float64(inter) / float64(union)
}

func ngrams(s string, n int) map[string]struct{} {
	out := make(map[string]struct{})
	for i := 0; i+n <= len(s); i++ {
		out[s[i:i+n]] = struct{}{}
	}
	return out
}

// InstanceSimilarity returns the maximum directional containment of
// distinct value sets: max(|A∩B|/|A|, |A∩B|/|B|). A foreign key fully
// contained in a primary key scores 1 regardless of the key column's extra
// values. Sampled down to m.MaxValues per side for cost control.
func (m *Matcher) InstanceSimilarity(a, b *frame.Column) float64 {
	sa := sampleSet(a, m.MaxValues)
	sb := sampleSet(b, m.MaxValues)
	if len(sa) == 0 || len(sb) == 0 {
		return 0
	}
	inter := 0
	for k := range sa {
		if _, ok := sb[k]; ok {
			inter++
		}
	}
	ca := float64(inter) / float64(len(sa))
	cb := float64(inter) / float64(len(sb))
	if ca > cb {
		return ca
	}
	return cb
}

// sampleSet returns up to max distinct keys from the column. Determinism:
// the first max distinct keys in row order are kept.
func sampleSet(c *frame.Column, max int) map[string]struct{} {
	set := make(map[string]struct{}, 64)
	for i, n := 0, c.Len(); i < n; i++ {
		if k, ok := c.Key(i); ok {
			set[k] = struct{}{}
			if max > 0 && len(set) >= max {
				break
			}
		}
	}
	return set
}

// minKeyDistinct is the minimum distinct-value count for a column to be a
// join-key candidate. Near-constant columns (binary labels, flags) are
// degenerate keys: their tiny value sets are contained in almost any other
// integer column, which would let instance evidence propose joins *on the
// label column* — a label-leakage channel a schema matcher must not open.
const minKeyDistinct = 3

// joinCandidate reports whether a column is a plausible join column:
// string or integer typed (continuous floats and booleans are feature
// columns, not keys) with at least minKeyDistinct distinct values.
func joinCandidate(c *frame.Column) bool {
	if c.Kind() != frame.Int && c.Kind() != frame.String {
		return false
	}
	return c.DistinctCount() >= minKeyDistinct
}

// MatchColumns scores a single column pair in [0,1]. Non-candidate kinds
// score 0; kind-incompatible pairs use name evidence only.
func (m *Matcher) MatchColumns(a, b *frame.Column) float64 {
	if !joinCandidate(a) || !joinCandidate(b) {
		return 0
	}
	name := NameSimilarity(a.Name(), b.Name())
	inst := m.InstanceSimilarity(a, b)
	wsum := m.NameWeight + m.InstanceWeight
	if wsum == 0 {
		return 0
	}
	return (m.NameWeight*name + m.InstanceWeight*inst) / wsum
}

// KFK declares a known key–foreign-key constraint between two tables.
type KFK struct {
	ParentTable, ParentCol string // primary-key side
	ChildTable, ChildCol   string // foreign-key side
}

// BuildBenchmarkDRG constructs the benchmark-setting DRG of Section VII-A:
// nodes for every table, edges only for the declared KFK constraints, each
// with weight 1. This resembles a curated snowflake schema.
func BuildBenchmarkDRG(tables []*frame.Frame, constraints []KFK) (*graph.Graph, error) {
	g := graph.New()
	for _, t := range tables {
		g.AddTable(t)
	}
	for _, k := range constraints {
		e := graph.Edge{
			A: k.ParentTable, ColA: k.ParentCol,
			B: k.ChildTable, ColB: k.ChildCol,
			Weight: 1, KFK: true,
		}
		if err := g.AddEdge(e); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// DiscoverDRGIndexed builds the lake DRG from a prebuilt index holding
// (at least) the given tables: candidate pairs come from the index and
// only those are scored, so the result is edge-identical to the
// quadratic build whenever the index covers the scorer (CoversScorer).
// Candidates are verified in the quadratic loop's emission order, so
// even edge insertion order matches. Indexed tables absent from the
// tables slice are ignored.
func DiscoverDRGIndexed(tables []*frame.Frame, threshold float64, s Scorer, idx *LSHIndex) (*graph.Graph, error) {
	g := graph.New()
	for _, t := range tables {
		g.AddTable(t)
	}
	// Position every join-candidate column exactly as the quadratic
	// loops would visit it: table order, then column order.
	type pos struct{ t, c int }
	where := make(map[*frame.Column]pos)
	for i, t := range tables {
		ci := 0
		for _, c := range t.Columns() {
			if joinCandidate(c) {
				where[c] = pos{i, ci}
				ci++
			}
		}
	}
	type cand struct {
		pa, pb pos
		ca, cb *frame.Column
	}
	pairs := idx.AllCandidates()
	cands := make([]cand, 0, len(pairs))
	for _, p := range pairs {
		wa, oka := where[p.ColA]
		wb, okb := where[p.ColB]
		if !oka || !okb {
			continue
		}
		if wb.t < wa.t {
			wa, wb = wb, wa
			p.ColA, p.ColB = p.ColB, p.ColA
		}
		cands = append(cands, cand{pa: wa, pb: wb, ca: p.ColA, cb: p.ColB})
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.pa.t != b.pa.t {
			return a.pa.t < b.pa.t
		}
		if a.pb.t != b.pb.t {
			return a.pb.t < b.pb.t
		}
		if a.pa.c != b.pa.c {
			return a.pa.c < b.pa.c
		}
		return a.pb.c < b.pb.c
	})
	for _, c := range cands {
		score := s.MatchColumns(c.ca, c.cb)
		if score < threshold {
			continue
		}
		e := graph.Edge{
			A: tables[c.pa.t].Name(), ColA: c.ca.Name(),
			B: tables[c.pb.t].Name(), ColB: c.cb.Name(),
			Weight: score,
		}
		if err := g.AddEdge(e); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// DiscoverDRGQuadratic builds the lake DRG by scoring every cross-table
// candidate column pair — the exhaustive reference path the indexed
// build is verified against, and the Lake's fallback when no coverage
// proof applies.
func DiscoverDRGQuadratic(tables []*frame.Frame, threshold float64, s Scorer) (*graph.Graph, error) {
	return discoverQuadratic(tables, threshold, s.MatchColumns)
}

// discoverQuadratic is the original all-pairs build. Join-candidate
// prefiltering happens once per table.
func discoverQuadratic(tables []*frame.Frame, threshold float64, score func(a, b *frame.Column) float64) (*graph.Graph, error) {
	g := graph.New()
	for _, t := range tables {
		g.AddTable(t)
	}
	cands := make([][]*frame.Column, len(tables))
	for i, t := range tables {
		for _, c := range t.Columns() {
			if joinCandidate(c) {
				cands[i] = append(cands[i], c)
			}
		}
	}
	for i := 0; i < len(tables); i++ {
		for j := i + 1; j < len(tables); j++ {
			for _, ca := range cands[i] {
				for _, cb := range cands[j] {
					s := score(ca, cb)
					if s < threshold {
						continue
					}
					e := graph.Edge{
						A: tables[i].Name(), ColA: ca.Name(),
						B: tables[j].Name(), ColB: cb.Name(),
						Weight: s,
					}
					if err := g.AddEdge(e); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return g, nil
}
