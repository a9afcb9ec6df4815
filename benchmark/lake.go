package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// lakeShape fixes everything about a generated lake except its values:
// the snowflake topology, which table holds which feature, the feature
// kinds and weights, and the coverage of every table. The benchmark seed
// draws only the values, null positions and covered entities, so two
// seeds give lakes with the same DRG and comparable work per request.
// internal/datagen.Generate draws the topology from its seed as well; on
// its lakes the work per request varied up to 20-fold between seeds, and
// the p50 spread across seeds far exceeded any bound (README, Workloads).
type lakeShape struct {
	Name     string `json:"name"`
	Rows     int    `json:"rows"`
	Tables   int    `json:"joinable_tables"`
	Features int    `json:"features"`
}

// keyOffset spaces each table's key range so unrelated keys never
// collide.
const keyOffset = 100000

const (
	featNoise = iota
	featBait  // small-int categorical with a name shared across tables
	featCopy  // monotone transform of an informative feature
)

type featurePlan struct {
	name     string
	weight   float64 // contribution to the label score; 0 for noise
	kind     int
	src      string  // featCopy: "table\x00feature" of the source
	a, b     float64 // featCopy: value = a*src + b
	nullFrac float64
}

type tablePlan struct {
	name     string
	parent   int // index of the parent table; -1 for the base
	keyCol   string
	fkCol    string
	coverage float64
	features []featurePlan
}

// plan lays out the lake. It mirrors the paper analogues of
// internal/datagen: half the tables hang off the base and the rest chain to
// depth 2 and 3, the strongest signal sits at the end of the deepest
// chain, one depth-1 table has coverage below τ, and bait columns named
// from a small pool connect unrelated tables in the matcher's DRG. The
// plan depends on the shape only.
func (s lakeShape) plan() (base []featurePlan, tables []tablePlan) {
	rng := rand.New(rand.NewSource(int64(s.Rows*1000 + s.Tables*100 + s.Features)))
	n := s.Tables
	depth1 := (n + 1) / 2
	depth2 := (n - depth1 + 1) / 2
	tables = make([]tablePlan, n)
	depth := make([]int, n)
	for i := range tables {
		t := &tables[i]
		t.name = fmt.Sprintf("%s_t%02d", s.Name, i)
		t.keyCol = fmt.Sprintf("key_%02d", i)
		t.fkCol = t.keyCol
		if i%2 == 1 {
			t.fkCol = fmt.Sprintf("fk_%02d", i)
		}
		t.coverage = 0.85
		switch {
		case i < depth1:
			t.parent, depth[i] = -1, 1
		case i < depth1+depth2:
			t.parent, depth[i] = (i-depth1)%depth1, 2
		default:
			t.parent, depth[i] = depth1+(i-depth1-depth2)%depth2, 3
		}
	}
	spurious := depth1 - 1
	tables[spurious].coverage = 0.3

	deepest := 0
	for i := range tables {
		if depth[i] > depth[deepest] && i != spurious {
			deepest = i
		}
	}
	var chain []int // deepest first
	for i := deepest; i >= 0; i = tables[i].parent {
		chain = append(chain, i)
		tables[i].coverage = 0.97
	}

	id := 0
	newName := func() string { id++; return fmt.Sprintf("f%03d", id) }
	signed := func(lo, hi float64) float64 {
		w := lo + (hi-lo)*rng.Float64()
		if rng.Intn(2) == 0 {
			w = -w
		}
		return w
	}
	var informative []string
	add := func(ti int, f featurePlan) {
		if ti < 0 {
			base = append(base, f)
			return
		}
		tables[ti].features = append(tables[ti].features, f)
		if f.weight != 0 {
			informative = append(informative, tables[ti].name+"\x00"+f.name)
		}
	}
	golden := []struct {
		n      int
		lo, hi float64
	}{{3, 1.6, 2.4}, {2, 0.8, 1.2}, {1, 0.5, 0.8}, {1, 0.4, 0.6}}
	used := 0
	for i, ti := range chain {
		if i >= len(golden) {
			break
		}
		for c := 0; c < golden[i].n; c++ {
			add(ti, featurePlan{name: newName(), weight: signed(golden[i].lo, golden[i].hi), nullFrac: 0.02 * rng.Float64()})
			used++
		}
	}
	for i := 0; i < 2; i++ {
		add(-1, featurePlan{name: newName(), weight: 0.1 + 0.15*rng.Float64()})
		used++
	}
	onChain := map[int]bool{}
	for _, ti := range chain {
		onChain[ti] = true
	}
	for used < s.Features/3 {
		ti := rng.Intn(n)
		if ti == spurious || onChain[ti] {
			ti = -1
		}
		add(ti, featurePlan{name: newName(), weight: signed(0.2, 0.5), nullFrac: 0.08 * rng.Float64()})
		used++
	}
	pool := []string{"code", "type", "status", "category", "region", "grade", "level", "segment"}
	baits := map[int]int{}
	for ; used < s.Features; used++ {
		ti := rng.Intn(n+1) - 1
		f := featurePlan{nullFrac: 0.08 * rng.Float64()}
		switch rng.Intn(4) {
		case 0, 1:
			if baits[ti] == len(pool) {
				break // every bait name is taken in this table; add noise
			}
			f.kind = featBait
			f.name = pool[baits[ti]]
			baits[ti]++
		case 2:
			f.kind = featCopy
			f.src = informative[rng.Intn(len(informative))]
			f.a, f.b = 0.5+rng.Float64(), rng.NormFloat64()
		}
		if f.name == "" {
			f.name = newName()
		}
		add(ti, f)
	}
	return base, tables
}

// write generates the lake for seed into dir as one CSV file per table
// and returns the base table's name. The label column is "target".
func (s lakeShape) write(dir string, seed int64) (string, error) {
	basePlan, tables := s.plan()
	rng := rand.New(rand.NewSource(seed))
	n := s.Rows

	values := map[string][]float64{}
	gen := func(owner string, f featurePlan) {
		if f.kind == featCopy {
			return
		}
		v := make([]float64, n)
		for i := range v {
			if f.kind == featBait {
				v[i] = float64(rng.Intn(10))
			} else {
				v[i] = rng.NormFloat64()
			}
		}
		values[owner+"\x00"+f.name] = v
	}
	for _, f := range basePlan {
		gen("", f)
	}
	for _, t := range tables {
		for _, f := range t.features {
			gen(t.name, f)
		}
	}
	score := make([]float64, n)
	each := func(fn func(owner string, f featurePlan)) {
		for _, f := range basePlan {
			fn("", f)
		}
		for _, t := range tables {
			for _, f := range t.features {
				fn(t.name, f)
			}
		}
	}
	each(func(owner string, f featurePlan) {
		if f.kind != featCopy {
			return
		}
		src := values[f.src]
		v := make([]float64, n)
		for i := range v {
			v[i] = f.a*src[i] + f.b
		}
		values[owner+"\x00"+f.name] = v
	})
	each(func(owner string, f featurePlan) {
		if f.weight == 0 {
			return
		}
		for i, x := range values[owner+"\x00"+f.name] {
			score[i] += f.weight * x
		}
	})
	for i := range score {
		score[i] += 0.5 * rng.NormFloat64()
	}
	sorted := append([]float64(nil), score...)
	sort.Float64s(sorted)
	median := sorted[n/2]

	covered := make([][]int, len(tables))
	for ti, t := range tables {
		k := int(t.coverage*float64(n) + 0.5)
		covered[ti] = rng.Perm(n)[:k]
		sort.Ints(covered[ti])
	}

	// Base table: id, features, one FK per depth-1 table, target.
	base := newTableWriter(s.Name)
	base.intCol("id", n, func(i int) int64 { return int64(i) })
	for _, f := range basePlan {
		base.feature(f, values["\x00"+f.name], identity(n), rng)
	}
	for ti, t := range tables {
		if t.parent < 0 {
			ti := ti
			base.intCol(t.fkCol, n, func(i int) int64 { return int64(i + (ti+1)*keyOffset) })
		}
	}
	base.intCol("target", n, func(i int) int64 {
		if score[i] > median {
			return 1
		}
		return 0
	})
	if err := base.save(dir); err != nil {
		return "", err
	}
	for ti, t := range tables {
		rows := covered[ti]
		w := newTableWriter(t.name)
		w.intCol(t.keyCol, len(rows), func(i int) int64 { return int64(rows[i] + (ti+1)*keyOffset) })
		for _, f := range t.features {
			w.feature(f, values[t.name+"\x00"+f.name], rows, rng)
		}
		for ci, c := range tables {
			if c.parent == ti {
				ci := ci
				w.intCol(c.fkCol, len(rows), func(i int) int64 { return int64(rows[i] + (ci+1)*keyOffset) })
			}
		}
		if err := w.save(dir); err != nil {
			return "", err
		}
	}
	return s.Name, nil
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// tableWriter accumulates one table column by column as CSV cells.
type tableWriter struct {
	name   string
	header []string
	cols   [][]string
}

func newTableWriter(name string) *tableWriter { return &tableWriter{name: name} }

func (w *tableWriter) intCol(name string, n int, at func(int) int64) {
	cells := make([]string, n)
	for i := range cells {
		cells[i] = strconv.FormatInt(at(i), 10)
	}
	w.header = append(w.header, name)
	w.cols = append(w.cols, cells)
}

// feature renders the entity values vals[rows[i]] with nulls injected at
// the plan's rate; an empty cell is a null.
func (w *tableWriter) feature(f featurePlan, vals []float64, rows []int, rng *rand.Rand) {
	cells := make([]string, len(rows))
	for i, e := range rows {
		switch {
		case f.nullFrac > 0 && rng.Float64() < f.nullFrac:
		case f.kind == featBait:
			cells[i] = strconv.Itoa(int(vals[e]))
		default:
			cells[i] = strconv.FormatFloat(vals[e], 'g', -1, 64)
		}
	}
	w.header = append(w.header, f.name)
	w.cols = append(w.cols, cells)
}

func (w *tableWriter) save(dir string) error {
	f, err := os.Create(filepath.Join(dir, w.name+".csv"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for i, h := range w.header {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(h)
	}
	bw.WriteByte('\n')
	for r := range w.cols[0] {
		for c := range w.cols {
			if c > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(w.cols[c][r])
		}
		bw.WriteByte('\n')
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
