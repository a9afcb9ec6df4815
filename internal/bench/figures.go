package bench

import (
	"fmt"
	"time"

	"autofeat/internal/core"
	"autofeat/internal/frame"
	"autofeat/internal/fselect"
	"autofeat/internal/ml"
)

// TableI regenerates the qualitative comparison of state-of-the-art
// methods (join path length, selection strategy, graph model).
func TableI() *Report {
	r := &Report{
		ID:     "table1",
		Title:  "Comparison of state-of-the-art methods",
		Header: []string{"method", "join path length", "path/feature selection", "joinability graph"},
	}
	r.AddRow("ARDA", "Single-hop", "Model-execution based", "Simple Graph")
	r.AddRow("MAB", "Multi-hop", "Model-execution based", "Simple Graph")
	r.AddRow("AutoFeat", "Multi-hop", "Ranking-based", "Multigraph")
	return r
}

// TableII regenerates the dataset overview: rows, joinable tables, total
// features and the best known accuracy, for the generated analogues.
func (r *Runner) TableII() (*Report, error) {
	rep := &Report{
		ID:     "table2",
		Title:  "Overview of datasets used in evaluation",
		Header: []string{"dataset", "# rows", "# joinable tables", "total # features", "best accuracy (paper)", "paper rows"},
		Notes: []string{
			"datasets are synthetic analogues; 'paper rows' records the original Table II size where scaled",
		},
	}
	for _, spec := range r.Specs {
		d, err := r.Dataset(spec.Name)
		if err != nil {
			return nil, err
		}
		features := 0
		for _, t := range d.Tables {
			for _, c := range t.Columns() {
				name := c.Name()
				if name == "id" || name == "target" || isKeyName(name) {
					continue
				}
				features++
			}
		}
		rep.AddRow(spec.Name, d.Base.NumRows(), len(d.Tables)-1, features, spec.BestAccuracy, spec.PaperRows)
	}
	return rep, nil
}

func isKeyName(name string) bool {
	return len(name) >= 3 && (name[:3] == "key" || name[:3] == "fk_")
}

// Figure3a regenerates the relevance-metric study: for each of the five
// metrics, the aggregated accuracy (select top-κ on the train split, train
// the GBDT, score the test split) and the aggregated selection runtime
// over the Section V datasets.
func (r *Runner) Figure3a() (*Report, error) {
	rep := &Report{
		ID:     "figure3a",
		Title:  "Relevance methods: aggregated accuracy and runtime",
		Header: []string{"metric", "mean accuracy", "total selection time"},
		Notes: []string{
			"expected shape: pearson/spearman ~3x faster than IG/SU and more accurate; relief fast but less accurate",
		},
	}
	for _, metric := range fselect.AllRelevance() {
		acc, elapsed, err := r.relevanceStudy(metric)
		if err != nil {
			return nil, err
		}
		rep.AddRow(metric.Name(), acc, elapsed)
	}
	return rep, nil
}

func (r *Runner) relevanceStudy(metric fselect.Relevance) (float64, time.Duration, error) {
	var accSum float64
	var timeSum time.Duration
	n := 0
	for _, spec := range r.Specs {
		flat, y, features, cols, err := r.flatStudy(spec.Name)
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		scores := metric.Scores(cols, y)
		idx, _ := fselect.SelectKBest(scores, 15)
		timeSum += time.Since(start)
		kept := make([]string, len(idx))
		for i, k := range idx {
			kept[i] = features[k]
		}
		if len(kept) == 0 {
			kept = features
		}
		eval, err := ml.EvaluateFrame(flat, kept, "target", ml.NewLightGBM(r.Seed), r.Seed)
		if err != nil {
			return 0, 0, err
		}
		accSum += eval.Accuracy
		n++
	}
	return accSum / float64(n), timeSum, nil
}

// Figure3b regenerates the redundancy-metric study over the same datasets.
func (r *Runner) Figure3b() (*Report, error) {
	rep := &Report{
		ID:     "figure3b",
		Title:  "Redundancy methods: aggregated accuracy and runtime",
		Header: []string{"metric", "mean accuracy", "total selection time"},
		Notes: []string{
			"expected shape: MIFS/MRMR ~3x faster than CIFE/JMI/CMIM (no conditional MI); JMI most accurate; MRMR balanced",
		},
	}
	for _, metric := range fselect.AllRedundancy() {
		acc, elapsed, err := r.redundancyStudy(metric)
		if err != nil {
			return nil, err
		}
		rep.AddRow(metric.Name(), acc, elapsed)
	}
	return rep, nil
}

func (r *Runner) redundancyStudy(metric fselect.Redundancy) (float64, time.Duration, error) {
	var accSum float64
	var timeSum time.Duration
	n := 0
	for _, spec := range r.Specs {
		flat, y, features, cols, err := r.flatStudy(spec.Name)
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		idx, _ := metric.Select(fselect.Discretize(cols), nil, y)
		timeSum += time.Since(start)
		kept := make([]string, len(idx))
		for i, k := range idx {
			kept[i] = features[k]
		}
		if len(kept) == 0 {
			kept = features
		}
		if len(kept) > 15 {
			kept = kept[:15]
		}
		eval, err := ml.EvaluateFrame(flat, kept, "target", ml.NewLightGBM(r.Seed), r.Seed)
		if err != nil {
			return 0, 0, err
		}
		accSum += eval.Accuracy
		n++
	}
	return accSum / float64(n), timeSum, nil
}

// flatStudy prepares the single-table view of a dataset for the Section V
// studies: imputed flat table, labels, feature names and columns.
func (r *Runner) flatStudy(name string) (flat *frame.Frame, y []int, features []string, cols [][]float64, err error) {
	d, err := r.Dataset(name)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	f, err := d.FlatTable()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	f = f.Imputed()
	y, err = f.Labels("target")
	if err != nil {
		return nil, nil, nil, nil, err
	}
	for _, c := range f.Columns() {
		name := c.Name()
		if name == "id" || name == "target" || isKeyName(name) {
			continue
		}
		features = append(features, name)
		cols = append(cols, c.Floats())
	}
	return f, y, features, cols, nil
}

// Figure4 regenerates the benchmark-setting main result: per dataset, the
// accuracy averaged over the four tree models, the average total runtime,
// its feature-selection share, and the number of joined tables.
func (r *Runner) Figure4() (*Report, error) {
	return r.sweepReport("figure4",
		"Benchmark setting: runtime and accuracy, tree-based models",
		Benchmark,
		[]string{"base", "arda", "mab", "joinall", "joinall+f", "autofeat"},
		ml.TreeFactories(),
		[]string{
			"expected shape: autofeat fastest selection (no model in the loop), accuracy >= baselines on average",
			"joinall variants skipped on school/bioresponse, as in the paper (Equation 3 blow-up)",
		})
}

// Figure5 regenerates the benchmark-setting non-tree-model accuracy.
func (r *Runner) Figure5() (*Report, error) {
	return r.sweepReport("figure5",
		"Benchmark setting: accuracy for KNN and L1 linear models",
		Benchmark,
		[]string{"base", "arda", "mab", "joinall", "joinall+f", "autofeat"},
		ml.NonTreeFactories(),
		[]string{"expected shape: linear/KNN models gain less from augmentation (curse of dimensionality)"})
}

// Figure6 regenerates the data-lake-setting main result (no JoinAll — the
// path count explodes, Equation 3).
func (r *Runner) Figure6() (*Report, error) {
	return r.sweepReport("figure6",
		"Data lake setting: runtime and accuracy, tree-based models",
		Lake,
		[]string{"base", "arda", "mab", "autofeat"},
		ml.TreeFactories(),
		[]string{
			"DRG discovered with the composite matcher at threshold 0.55 (dense multigraph with spurious edges)",
			"expected shape: autofeat prunes spurious joins, stays fastest and most accurate on average",
		})
}

// Figure7 regenerates the data-lake-setting non-tree-model accuracy.
func (r *Runner) Figure7() (*Report, error) {
	return r.sweepReport("figure7",
		"Data lake setting: accuracy for KNN and L1 linear models",
		Lake,
		[]string{"base", "arda", "mab", "autofeat"},
		ml.NonTreeFactories(),
		[]string{"expected shape: KNN suffers from spurious joins; LR with AutoFeat leads on most datasets"})
}

func (r *Runner) sweepReport(id, title string, s Setting, methods []string, models []ml.Factory, notes []string) (*Report, error) {
	results, err := r.Sweep(s, methods, models)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:     id,
		Title:  title,
		Header: []string{"dataset", "method", "mean accuracy", "mean AUC", "selection time", "total time", "# joined tables"},
		Notes:  notes,
	}
	agg := aggregateByDatasetMethod(results)
	for _, spec := range r.Specs {
		for _, method := range methods {
			v, ok := agg[aggKey{spec.Name, method}]
			if !ok {
				rep.AddRow(spec.Name, method, "n/a", "n/a", "n/a", "n/a", "n/a")
				continue
			}
			rep.AddRow(spec.Name, method, v.acc, v.auc, v.selTime, v.totalTime, v.tablesJoined)
		}
	}
	return rep, nil
}

// Figure1 regenerates the headline scatter: per method, the mean feature
// discovery/augmentation time against the mean accuracy, aggregated over
// the benchmark and lake sweeps with tree models.
func (r *Runner) Figure1() (*Report, error) {
	bench, err := r.Sweep(Benchmark, []string{"base", "arda", "mab", "joinall", "joinall+f", "autofeat"}, ml.TreeFactories())
	if err != nil {
		return nil, err
	}
	lake, err := r.Sweep(Lake, []string{"base", "arda", "mab", "autofeat"}, ml.TreeFactories())
	if err != nil {
		return nil, err
	}
	type agg struct {
		acc, n float64
		t      time.Duration
	}
	byMethod := map[string]*agg{}
	for _, mr := range append(bench, lake...) {
		a := byMethod[mr.Method]
		if a == nil {
			a = &agg{}
			byMethod[mr.Method] = a
		}
		a.acc += mr.Accuracy
		a.t += mr.TotalTime
		a.n++
	}
	rep := &Report{
		ID:     "figure1",
		Title:  "Headline: augmentation time vs accuracy (lower-left to upper-left is better)",
		Header: []string{"method", "mean accuracy", "mean total time", "speedup vs slowest"},
		Notes:  []string{"expected shape: autofeat upper-left — highest accuracy at a fraction of the time"},
	}
	var slowest time.Duration
	for _, a := range byMethod {
		d := time.Duration(float64(a.t) / a.n)
		if d > slowest {
			slowest = d
		}
	}
	for _, method := range []string{"base", "arda", "mab", "joinall", "joinall+f", "autofeat"} {
		a, ok := byMethod[method]
		if !ok {
			continue
		}
		mean := time.Duration(float64(a.t) / a.n)
		rep.AddRow(method, a.acc/a.n, mean, fmt.Sprintf("%.1fx", float64(slowest)/float64(mean)))
	}
	return rep, nil
}

// Figure8 regenerates the parameter sensitivity study. It returns four
// reports: (a) the κ sweep, (b) the τ sweep aggregated over datasets, and
// (c)/(d) the τ close-ups on the covertype and school analogues.
func (r *Runner) Figure8() ([]*Report, error) {
	kappaRep := &Report{
		ID:     "figure8a",
		Title:  "Sensitivity to kappa (max features per table)",
		Header: []string{"kappa", "mean accuracy", "mean selection time"},
		Notes:  []string{"expected shape: accuracy gains flatten past kappa ~10-15 while selection time keeps growing"},
	}
	for _, kappa := range []int{2, 4, 6, 8, 10, 15, 20} {
		cfg := DefaultAutoFeatConfig(r.Seed)
		cfg.Kappa = kappa
		acc, sel, _, err := r.autofeatSweepPoint(cfg)
		if err != nil {
			return nil, err
		}
		kappaRep.AddRow(kappa, acc, sel)
	}

	tauRep := &Report{
		ID:     "figure8b",
		Title:  "Sensitivity to tau (data-quality threshold), all datasets",
		Header: []string{"tau", "mean accuracy", "mean selection time", "datasets with paths"},
		Notes:  []string{"expected shape: flat for tau in [0.05,0.6]; above 0.6 more paths pruned (faster, small accuracy dip); tau=1 can yield no output"},
	}
	detail := map[string]*Report{
		"covertype": {
			ID:     "figure8c",
			Title:  "Sensitivity to tau: covertype analogue",
			Header: []string{"tau", "accuracy", "selection time", "paths"},
		},
		"school": {
			ID:     "figure8d",
			Title:  "Sensitivity to tau: school analogue",
			Header: []string{"tau", "accuracy", "selection time", "paths"},
		},
	}
	for step := 1; step <= 20; step++ {
		tau := float64(step) * 0.05
		if tau > 1 {
			tau = 1
		}
		cfg := DefaultAutoFeatConfig(r.Seed)
		cfg.Tau = tau
		acc, sel, withPaths, err := r.autofeatSweepPoint(cfg)
		if err != nil {
			return nil, err
		}
		tauRep.AddRow(fmt.Sprintf("%.2f", tau), acc, sel, withPaths)
		for name, rep := range detail {
			if !r.hasSpec(name) {
				continue
			}
			dacc, dsel, paths, err := r.autofeatPoint(name, cfg)
			if err != nil {
				return nil, err
			}
			rep.AddRow(fmt.Sprintf("%.2f", tau), dacc, dsel, paths)
		}
	}
	out := []*Report{kappaRep, tauRep}
	for _, name := range []string{"covertype", "school"} {
		if r.hasSpec(name) {
			out = append(out, detail[name])
		}
	}
	return out, nil
}

func (r *Runner) hasSpec(name string) bool {
	for _, s := range r.Specs {
		if s.Name == name {
			return true
		}
	}
	return false
}

// autofeatSweepPoint runs AutoFeat with cfg on every dataset (benchmark
// setting, LightGBM) and returns mean accuracy, mean selection time and
// how many datasets produced at least one path.
func (r *Runner) autofeatSweepPoint(cfg core.Config) (float64, time.Duration, int, error) {
	var accSum float64
	var selSum time.Duration
	withPaths := 0
	for _, spec := range r.Specs {
		acc, sel, paths, err := r.autofeatPoint(spec.Name, cfg)
		if err != nil {
			return 0, 0, 0, err
		}
		accSum += acc
		selSum += sel
		if paths > 0 {
			withPaths++
		}
	}
	n := float64(len(r.Specs))
	return accSum / n, time.Duration(float64(selSum) / n), withPaths, nil
}

// autofeatPoint runs AutoFeat with cfg on one dataset and returns
// accuracy, selection time and the number of ranked paths.
func (r *Runner) autofeatPoint(name string, cfg core.Config) (float64, time.Duration, int, error) {
	e, err := r.autofeatRanking(name, Benchmark, cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	lgbm, _ := ml.FactoryByName("lightgbm")
	res, err := e.disc.EvaluateRanking(e.ranking, lgbm)
	if err != nil {
		return 0, 0, 0, err
	}
	return res.Best.Eval.Accuracy, res.SelectionTime, len(e.ranking.Paths), nil
}

// AblationVariant is one Figure 9 configuration of AutoFeat.
type AblationVariant struct {
	Name       string
	Relevance  string // "" disables the stage
	Redundancy string // "" disables the stage
}

// Figure9Variants lists the paper's ablation configurations.
func Figure9Variants() []AblationVariant {
	return []AblationVariant{
		{Name: "autofeat (spearman-mrmr)", Relevance: "spearman", Redundancy: "mrmr"},
		{Name: "pearson-jmi", Relevance: "pearson", Redundancy: "jmi"},
		{Name: "spearman-jmi", Relevance: "spearman", Redundancy: "jmi"},
		{Name: "pearson-mrmr", Relevance: "pearson", Redundancy: "mrmr"},
		{Name: "spearman-only", Relevance: "spearman"},
		{Name: "mrmr-only", Redundancy: "mrmr"},
	}
}

// Figure9 regenerates the metric ablation: accuracy and total time per
// dataset for each AutoFeat configuration.
func (r *Runner) Figure9() (*Report, error) {
	rep := &Report{
		ID:     "figure9",
		Title:  "Ablation: AutoFeat configurations (relevance x redundancy)",
		Header: []string{"dataset", "variant", "accuracy", "total time", "paths"},
		Notes: []string{
			"expected shape: JMI variants >= 2x slower; spearman-mrmr best efficiency with minimal accuracy loss",
		},
	}
	lgbm, _ := ml.FactoryByName("lightgbm")
	for _, spec := range r.Specs {
		for _, v := range Figure9Variants() {
			cfg := DefaultAutoFeatConfig(r.Seed)
			cfg.Relevance = fselect.RelevanceByName(v.Relevance)
			cfg.Redundancy = fselect.RedundancyByName(v.Redundancy)
			e, err := r.autofeatRanking(spec.Name, Benchmark, cfg)
			if err != nil {
				return nil, err
			}
			res, err := e.disc.EvaluateRanking(e.ranking, lgbm)
			if err != nil {
				return nil, err
			}
			rep.AddRow(spec.Name, v.Name, res.Best.Eval.Accuracy, res.TotalTime, len(e.ranking.Paths))
		}
	}
	return rep, nil
}
