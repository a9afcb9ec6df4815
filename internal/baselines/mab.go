package baselines

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"autofeat/internal/frame"
	"autofeat/internal/graph"
	"autofeat/internal/ml"
	"autofeat/internal/relational"
)

// MAB reimplements the multi-armed-bandit feature augmentation of Liu et
// al. ("Feature Augmentation with Reinforcement Learning"): candidate
// joins are bandit arms, the reward of pulling an arm is the validation
// accuracy gain of the target model after performing that join, and arms
// are chosen by UCB1. Accepted joins extend the augmented table, which
// opens transitive arms — MAB handles multi-hop paths, but (as the
// AutoFeat paper observes) only through joins whose column names are
// identical on both sides, which blocks most transitive exploration in
// practice.
//
// Every pull trains the model once; with tens of pulls per run this is the
// "expensive model execution step" that makes MAB the slowest method in
// Figures 4 and 6.
type MAB struct {
	// MaxPulls bounds the bandit rounds (model trainings).
	MaxPulls int
	// Explore is the UCB1 exploration coefficient.
	Explore float64
}

// NewMAB returns MAB with the defaults used in our evaluation.
func NewMAB() *MAB { return &MAB{MaxPulls: 20, Explore: math.Sqrt2} }

// Name implements Method.
func (*MAB) Name() string { return "mab" }

// arm is one candidate join: from a table already in the augmented result
// to a new table, over same-named columns.
type arm struct {
	edge  graph.Edge
	pulls int
	sum   float64
}

// Augment implements Method.
func (m *MAB) Augment(g *graph.Graph, base, label string, factory ml.Factory, seed int64) (*Result, error) {
	start := time.Now()
	bt, qlabel, err := prefixedBase(g, base, label)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))

	selStart := time.Now()
	current := bt
	inResult := map[string]bool{base: true}
	joinedTables := 0

	sp, err := trainValSplit(current, qlabel, seed)
	if err != nil {
		return nil, err
	}
	currentAcc, err := fitAndScore(sp, featuresOf(current, qlabel), qlabel, factory, seed)
	if err != nil {
		return nil, err
	}

	arms := m.collectArms(g, inResult)
	totalPulls := 0
	for round := 0; round < m.MaxPulls && len(arms) > 0; round++ {
		// UCB1 arm choice.
		bestIdx := -1
		bestUCB := math.Inf(-1)
		for i, a := range arms {
			var ucb float64
			if a.pulls == 0 {
				ucb = math.Inf(1)
			} else {
				ucb = a.sum/float64(a.pulls) + m.Explore*math.Sqrt(math.Log(float64(totalPulls+1))/float64(a.pulls))
			}
			if ucb > bestUCB {
				bestUCB = ucb
				bestIdx = i
			}
		}
		a := arms[bestIdx]
		totalPulls++

		candidate, ok := m.tryJoin(current, g.Table(a.edge.B), a.edge, rng)
		reward := -0.01
		if ok {
			// Model-in-the-loop reward: retrain and measure the gain.
			csp, err := trainValSplit(candidate, qlabel, seed+int64(round))
			if err != nil {
				return nil, err
			}
			acc, err := fitAndScore(csp, featuresOf(candidate, qlabel), qlabel, factory, seed)
			if err != nil {
				return nil, err
			}
			reward = acc - currentAcc
			if reward > 0 {
				current = candidate
				currentAcc = acc
				inResult[a.edge.B] = true
				joinedTables++
				arms = m.collectArms(g, inResult) // transitive arms open up
				continue
			}
		}
		a.pulls++
		a.sum += reward
		// Remove hopeless arms after two failed pulls.
		if a.pulls >= 2 && a.sum/float64(a.pulls) <= 0 {
			arms = append(arms[:bestIdx], arms[bestIdx+1:]...)
		}
	}
	selTime := time.Since(selStart)

	features := featuresOf(current, qlabel)
	eval, err := evalFrame(current, features, qlabel, factory, seed)
	if err != nil {
		return nil, err
	}
	return &Result{
		Method:        "mab",
		Table:         current,
		Features:      features,
		Eval:          eval,
		TablesJoined:  joinedTables,
		SelectionTime: selTime,
		TotalTime:     time.Since(start),
	}, nil
}

// collectArms lists candidate joins from the current result set to new
// tables, restricted — like the original MAB — to identical column names.
// Nodes are walked in sorted order: arm order decides UCB1's tie-break
// among unpulled arms, so map order would make runs irreproducible.
func (m *MAB) collectArms(g *graph.Graph, inResult map[string]bool) []*arm {
	nodes := make([]string, 0, len(inResult))
	for node := range inResult {
		nodes = append(nodes, node)
	}
	sort.Strings(nodes)
	var out []*arm
	for _, node := range nodes {
		for _, e := range g.EdgesFrom(node) {
			if inResult[e.B] {
				continue
			}
			if e.ColA != e.ColB {
				continue // MAB's same-name restriction
			}
			out = append(out, &arm{edge: e})
		}
	}
	return out
}

// tryJoin materialises one candidate join; ok=false when infeasible or no
// rows match.
func (m *MAB) tryJoin(current *frame.Frame, right *frame.Frame, e graph.Edge, rng *rand.Rand) (*frame.Frame, bool) {
	if right == nil {
		return nil, false
	}
	res, err := relational.LeftJoin(current, right, e.A+"."+e.ColA, e.ColB,
		relational.Options{Rng: rng})
	if err != nil || res.MatchedRows == 0 {
		return nil, false
	}
	return res.Frame, true
}
