package baselines

import (
	"math/rand"
	"time"

	"autofeat/internal/fselect"
	"autofeat/internal/graph"
	"autofeat/internal/ml"
	"autofeat/internal/relational"
)

// JoinAll is the exhaustive baseline: join every table reachable from the
// base (BFS order, best-weight edge per newly reached table) into one wide
// table. With Filter=false it trains on everything (the paper's JoinAll);
// with Filter=true one filter feature-selection pass (Spearman top-κ) runs
// over the wide table first (JoinAll+F).
//
// The paper's Equation (3) explains why JoinAll explodes combinatorially
// on non-KFK schemata; this implementation materialises the single
// canonical BFS ordering, which is the tractable case the paper actually
// ran (the benchmark setting; JoinAll is omitted from the data-lake
// figures for exactly this reason).
type JoinAll struct {
	// Filter enables the JoinAll+F post-join selection pass.
	Filter bool
	// Kappa is the filter's top-κ budget.
	Kappa int
}

// NewJoinAll returns JoinAll (filter=false) or JoinAll+F (filter=true).
func NewJoinAll(filter bool) *JoinAll { return &JoinAll{Filter: filter, Kappa: 15} }

// Name implements Method.
func (j *JoinAll) Name() string {
	if j.Filter {
		return "joinall+f"
	}
	return "joinall"
}

// Augment implements Method.
func (j *JoinAll) Augment(g *graph.Graph, base, label string, factory ml.Factory, seed int64) (*Result, error) {
	start := time.Now()
	bt, qlabel, err := prefixedBase(g, base, label)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))

	// BFS join of everything reachable. reachedVia maps each new table to
	// the table it was first reached from, so transitive joins use the
	// correct qualified join key.
	current := bt
	joined := 0
	visited := map[string]bool{base: true}
	queue := []string{base}
	for len(queue) > 0 {
		node := queue[0]
		queue = queue[1:]
		for _, nb := range g.Neighbors(node) {
			if visited[nb] {
				continue
			}
			e, ok := bestEdge(g, node, nb)
			if !ok {
				continue
			}
			res, err := relational.LeftJoin(current, g.Table(nb), e.A+"."+e.ColA, e.ColB,
				relational.Options{Rng: rng})
			if err != nil || res.MatchedRows == 0 {
				continue
			}
			current = res.Frame
			visited[nb] = true
			joined++
			queue = append(queue, nb)
		}
	}

	features := featuresOf(current, qlabel)
	var selTime time.Duration
	if j.Filter && len(features) > 0 {
		selStart := time.Now()
		cols := make([][]float64, len(features))
		for i, name := range features {
			cols[i] = current.Column(name).Floats()
		}
		y, err := current.Labels(qlabel)
		if err != nil {
			return nil, err
		}
		scores := (fselect.SpearmanRelevance{}).Scores(cols, y)
		idx, _ := fselect.SelectKBest(scores, j.Kappa)
		if len(idx) > 0 {
			kept := make([]string, len(idx))
			for i, k := range idx {
				kept[i] = features[k]
			}
			features = kept
		}
		selTime = time.Since(selStart)
	}

	eval, err := evalFrame(current, features, qlabel, factory, seed)
	if err != nil {
		return nil, err
	}
	return &Result{
		Method:        j.Name(),
		Table:         current,
		Features:      features,
		Eval:          eval,
		TablesJoined:  joined,
		SelectionTime: selTime,
		TotalTime:     time.Since(start),
	}, nil
}
