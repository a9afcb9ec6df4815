package baselines

import (
	"math/rand"
	"sort"
	"time"

	"autofeat/internal/frame"
	"autofeat/internal/graph"
	"autofeat/internal/ml"
	"autofeat/internal/relational"
)

// ARDA reimplements the feature-selection core of "ARDA: Automatic
// Relational Data Augmentation for Machine Learning" (Chepurko et al.,
// PVLDB 2020) at the fidelity level the AutoFeat authors used: the
// original system's source was unavailable, so the algorithm is rebuilt
// from the paper.
//
// ARDA is limited to star schemata: it left-joins every table directly
// connected to the base table (single hop), then runs RIFS —
// random-injection feature selection. RIFS injects synthetic random
// features, measures feature importance with the target model (here:
// permutation importance on a validation split), discards real features
// that cannot beat the injected noise, and wrapper-evaluates a small
// ladder of keep-fractions with full model retraining to pick the best
// subset. The repeated model training is exactly the cost AutoFeat's
// ranking avoids.
type ARDA struct {
	// InjectFrac is the ratio of injected random features to real ones.
	InjectFrac float64
	// Fractions is the ladder of candidate keep-fractions wrapper-
	// evaluated with the model.
	Fractions []float64
}

// NewARDA returns ARDA with the defaults used in our evaluation: 20%
// injected noise and a 4-step keep-fraction ladder.
func NewARDA() *ARDA {
	return &ARDA{InjectFrac: 0.2, Fractions: []float64{0.1, 0.25, 0.5, 1.0}}
}

// Name implements Method.
func (*ARDA) Name() string { return "arda" }

// Augment implements Method.
func (a *ARDA) Augment(g *graph.Graph, base, label string, factory ml.Factory, seed int64) (*Result, error) {
	start := time.Now()
	bt, qlabel, err := prefixedBase(g, base, label)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))

	// Star-schema join: every direct neighbour, best join column each.
	joined := bt
	joinedTables := 0
	for _, nb := range g.Neighbors(base) {
		e, ok := bestEdge(g, base, nb)
		if !ok {
			continue
		}
		res, err := relational.LeftJoin(joined, g.Table(nb), e.A+"."+e.ColA, e.ColB,
			relational.Options{Rng: rng})
		if err != nil || res.MatchedRows == 0 {
			continue
		}
		joined = res.Frame
		joinedTables++
	}
	features := featuresOf(joined, qlabel)

	// RIFS (feature selection proper) — timed separately.
	selStart := time.Now()
	kept, err := a.rifs(joined, features, qlabel, factory, rng, seed)
	if err != nil {
		return nil, err
	}
	selTime := time.Since(selStart)

	eval, err := evalFrame(joined, kept, qlabel, factory, seed)
	if err != nil {
		return nil, err
	}
	return &Result{
		Method:        "arda",
		Table:         joined,
		Features:      kept,
		Eval:          eval,
		TablesJoined:  joinedTables,
		SelectionTime: selTime,
		TotalTime:     time.Since(start),
	}, nil
}

// rifs runs random-injection feature selection and returns the kept
// feature names.
func (a *ARDA) rifs(f *frame.Frame, features []string, label string, factory ml.Factory, rng *rand.Rand, seed int64) ([]string, error) {
	if len(features) == 0 {
		return features, nil
	}
	// Inject random features.
	nInject := int(float64(len(features))*a.InjectFrac) + 1
	withNoise := f
	injected := make([]string, 0, nInject)
	for i := 0; i < nInject; i++ {
		vals := make([]float64, f.NumRows())
		for j := range vals {
			vals[j] = rng.NormFloat64()
		}
		name := "__arda_random_" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		col := frame.NewFloatColumn(name, vals, nil)
		g := frame.New(withNoise.Name())
		for _, c := range withNoise.Columns() {
			if err := g.AddColumn(c); err != nil {
				return nil, err
			}
		}
		if err := g.AddColumn(col); err != nil {
			return nil, err
		}
		withNoise = g
		injected = append(injected, name)
	}
	all := append(append([]string{}, features...), injected...)

	sp, err := trainValSplit(withNoise, label, seed)
	if err != nil {
		return nil, err
	}
	imp, err := permutationImportance(sp, all, label, factory, seed, rng)
	if err != nil {
		return nil, err
	}

	// Noise gate: real features must beat the best injected feature.
	noiseMax := 0.0
	for _, name := range injected {
		if imp[name] > noiseMax {
			noiseMax = imp[name]
		}
	}
	type fi struct {
		name string
		imp  float64
	}
	ranked := make([]fi, 0, len(features))
	for _, name := range features {
		ranked = append(ranked, fi{name, imp[name]})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].imp != ranked[j].imp {
			return ranked[i].imp > ranked[j].imp
		}
		return ranked[i].name < ranked[j].name
	})
	var passing []string
	for _, r := range ranked {
		if r.imp > noiseMax {
			passing = append(passing, r.name)
		}
	}
	if len(passing) == 0 {
		// Nothing beats noise; fall back to the full ranked list so the
		// wrapper ladder still has candidates.
		for _, r := range ranked {
			passing = append(passing, r.name)
		}
	}

	// Wrapper ladder: retrain the model per keep-fraction, keep the best.
	bestAcc := -1.0
	var best []string
	for _, frac := range a.Fractions {
		k := int(float64(len(passing))*frac + 0.5)
		if k < 1 {
			k = 1
		}
		if k > len(passing) {
			k = len(passing)
		}
		cand := passing[:k]
		acc, err := fitAndScore(sp, cand, label, factory, seed)
		if err != nil {
			return nil, err
		}
		if acc > bestAcc {
			bestAcc = acc
			best = cand
		}
	}
	return best, nil
}

// permutationImportance trains once and measures, per feature, the
// validation accuracy drop when that feature's values are shuffled.
func permutationImportance(sp *frame.Split, features []string, label string, factory ml.Factory, seed int64, rng *rand.Rand) (map[string]float64, error) {
	Xtr, err := sp.Train.Matrix(features)
	if err != nil {
		return nil, err
	}
	ytr, err := sp.Train.Labels(label)
	if err != nil {
		return nil, err
	}
	Xva, err := sp.Test.Matrix(features)
	if err != nil {
		return nil, err
	}
	yva, err := sp.Test.Labels(label)
	if err != nil {
		return nil, err
	}
	m := factory.New(seed)
	if err := m.Fit(Xtr, ytr); err != nil {
		return nil, err
	}
	baseAcc := ml.Accuracy(m.Predict(Xva), yva)

	out := make(map[string]float64, len(features))
	col := make([]float64, len(Xva))
	perm := make([]int, len(Xva))
	for j, name := range features {
		for i := range Xva {
			col[i] = Xva[i][j]
			perm[i] = i
		}
		rng.Shuffle(len(perm), func(x, y int) { perm[x], perm[y] = perm[y], perm[x] })
		for i := range Xva {
			Xva[i][j] = col[perm[i]]
		}
		out[name] = baseAcc - ml.Accuracy(m.Predict(Xva), yva)
		for i := range Xva {
			Xva[i][j] = col[i]
		}
	}
	return out, nil
}
