package bench

import (
	"fmt"
	"log/slog"
	"time"

	"autofeat/internal/baselines"
	"autofeat/internal/core"
	"autofeat/internal/datagen"
	"autofeat/internal/graph"
	"autofeat/internal/lake"
	"autofeat/internal/ml"
	"autofeat/internal/obsrv"
	"autofeat/internal/telemetry"
)

// Setting selects the schema configuration of Section VII-A.
type Setting int

// The two evaluation settings.
const (
	// Benchmark is the curated snowflake: KFK edges only.
	Benchmark Setting = iota
	// Lake is the data-lake setting: KFK metadata dropped, relationships
	// rediscovered with the matcher at threshold 0.55.
	Lake
)

// String returns the setting's report name.
func (s Setting) String() string {
	if s == Lake {
		return "lake"
	}
	return "benchmark"
}

// LakeThreshold is the paper's discovery threshold, chosen "to encourage
// spurious, but not irrelevant, connections".
const LakeThreshold = 0.55

// MethodResult is one (dataset, setting, method, model) measurement — the
// unit every figure aggregates.
type MethodResult struct {
	Dataset      string
	Setting      Setting
	Method       string
	Model        string
	Accuracy     float64
	AUC          float64
	TablesJoined int
	// SelectionTime is feature-selection/discovery time only; TotalTime
	// includes joins and model training.
	SelectionTime time.Duration
	TotalTime     time.Duration
}

// Runner caches datasets, their lakes and AutoFeat rankings so the figures
// can share work: each (dataset, setting) has one lake over the
// dataset's frames, which builds that setting's DRG once, and AutoFeat's
// discovery is model-independent (the paper's core efficiency
// argument), so one ranking serves all model families.
type Runner struct {
	// Specs are the datasets to sweep.
	Specs []datagen.Spec
	// Seed drives every method.
	Seed int64
	// Verbose prints progress lines to stdout.
	Verbose bool
	// Workers is the per-discovery join-evaluation parallelism (0 =
	// GOMAXPROCS). Rankings are bit-identical at any worker count, so the
	// ranking cache stays valid across values and the key omits it.
	Workers int
	// Telemetry, when non-nil, is attached to every AutoFeat discovery the
	// runner executes, accumulating metrics and per-phase span histograms
	// across the whole sweep. Write it out with WriteTelemetry.
	Telemetry *telemetry.Collector
	// Timeout bounds each discovery's wall clock (core.Config.Timeout);
	// 0 means none. It joins the ranking cache key, since an expired
	// deadline truncates the ranking.
	Timeout time.Duration
	// MaxEvalJoins budgets joins evaluated per discovery
	// (core.Config.MaxEvalJoins); 0 keeps the config's budget.
	MaxEvalJoins int
	// Logger, when non-nil, is threaded into every discovery the runner
	// executes (core.Config.Logger). Nil disables structured logging.
	Logger *slog.Logger
	// Progress, when non-nil, receives live run state from every discovery
	// the runner executes (core.Config.Progress), so a sweep can be watched
	// through the introspection server's /runs/{id} endpoint.
	Progress *obsrv.RunProgress

	datasets map[string]*datagen.Dataset
	lakes    map[lakeKey]*lake.Lake
	rankings map[string]*rankingEntry
	sweeps   map[string][]MethodResult
}

// lakeKey names the lake of one dataset in one setting.
type lakeKey struct {
	name string
	s    Setting
}

type rankingEntry struct {
	disc    *core.Discovery
	ranking *core.Ranking
}

// NewRunner builds a runner over the given dataset specs.
func NewRunner(specs []datagen.Spec, seed int64) *Runner {
	return &Runner{
		Specs:    specs,
		Seed:     seed,
		datasets: make(map[string]*datagen.Dataset),
		lakes:    make(map[lakeKey]*lake.Lake),
		rankings: make(map[string]*rankingEntry),
		sweeps:   make(map[string][]MethodResult),
	}
}

func (r *Runner) logf(format string, args ...any) {
	if r.Verbose {
		fmt.Printf(format+"\n", args...)
	}
}

// WriteTelemetry writes the runner's accumulated telemetry (if any) to a
// JSON file with telemetry.WriteMetricsFile: counters, gauges,
// histograms, the pruning breakdown and per-phase timings of every
// discovery the sweep ran.
func (r *Runner) WriteTelemetry(path string) error {
	if r.Telemetry == nil {
		return fmt.Errorf("bench: no telemetry collector attached")
	}
	return telemetry.WriteMetricsFile(path, r.Telemetry.Snapshot())
}

// Dataset generates (and caches) the named dataset.
func (r *Runner) Dataset(name string) (*datagen.Dataset, error) {
	if d, ok := r.datasets[name]; ok {
		return d, nil
	}
	for _, s := range r.Specs {
		if s.Name == name {
			d, err := datagen.Generate(s)
			if err != nil {
				return nil, err
			}
			r.datasets[name] = d
			return d, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown dataset %q", name)
}

// DRG returns the graph for a dataset in a setting, built once by the
// (dataset, setting) lake: the declared KFKs for Benchmark, the matcher
// at LakeThreshold for Lake.
func (r *Runner) DRG(name string, s Setting) (*graph.Graph, error) {
	d, err := r.Dataset(name)
	if err != nil {
		return nil, err
	}
	k := lakeKey{name, s}
	l := r.lakes[k]
	if l == nil {
		opt := lake.WithThreshold(LakeThreshold)
		if s == Benchmark {
			opt = lake.WithKFKs(d.KFKs)
		}
		l = lake.New(d.Tables, opt)
		r.lakes[k] = l
	}
	return l.DRG()
}

// autofeatRanking runs (and caches) AutoFeat discovery for a dataset and
// setting with the given config.
func (r *Runner) autofeatRanking(name string, s Setting, cfg core.Config) (*rankingEntry, error) {
	cfg.Timeout = r.Timeout
	if r.MaxEvalJoins > 0 {
		cfg.MaxEvalJoins = r.MaxEvalJoins
	}
	key := fmt.Sprintf("%s/%s/tau=%.2f/kappa=%d/%s/budget=%v-%d",
		name, s, cfg.Tau, cfg.Kappa, cfgMetricKey(cfg), cfg.Timeout, cfg.MaxEvalJoins)
	if e, ok := r.rankings[key]; ok {
		return e, nil
	}
	d, err := r.Dataset(name)
	if err != nil {
		return nil, err
	}
	g, err := r.DRG(name, s)
	if err != nil {
		return nil, err
	}
	cfg.Telemetry = r.Telemetry
	cfg.Workers = r.Workers
	cfg.Logger = r.Logger
	cfg.Progress = r.Progress
	// No shared KeyCache: each config starts from a cold key-index cache,
	// so the selection times that Figures 8 and 9 compare stay like for
	// like.
	disc, err := core.New(g, d.Base.Name(), d.Label, cfg)
	if err != nil {
		return nil, err
	}
	ranking, err := disc.Run()
	if err != nil {
		return nil, err
	}
	e := &rankingEntry{disc: disc, ranking: ranking}
	r.rankings[key] = e
	return e, nil
}

func cfgMetricKey(cfg core.Config) string {
	rel, red := "none", "none"
	if cfg.Relevance != nil {
		rel = cfg.Relevance.Name()
	}
	if cfg.Redundancy != nil {
		red = cfg.Redundancy.Name()
	}
	return rel + "-" + red
}

// RunMethod executes one method on one dataset/setting with one model.
// AutoFeat reuses the cached ranking (discovery is model-independent);
// the baselines rerun end to end because their selection embeds the model.
func (r *Runner) RunMethod(name string, s Setting, method string, factory ml.Factory) (*MethodResult, error) {
	d, err := r.Dataset(name)
	if err != nil {
		return nil, err
	}
	g, err := r.DRG(name, s)
	if err != nil {
		return nil, err
	}
	if method == "autofeat" {
		return r.runAutoFeat(d, s, factory, DefaultAutoFeatConfig(r.Seed))
	}
	m := baselines.ByName(method)
	if m == nil {
		return nil, fmt.Errorf("bench: unknown method %q", method)
	}
	res, err := m.Augment(g, d.Base.Name(), d.Label, factory, r.Seed)
	if err != nil {
		return nil, err
	}
	return &MethodResult{
		Dataset: name, Setting: s, Method: method, Model: factory.Name,
		Accuracy: res.Eval.Accuracy, AUC: res.Eval.AUC,
		TablesJoined:  res.TablesJoined,
		SelectionTime: res.SelectionTime, TotalTime: res.TotalTime,
	}, nil
}

// DefaultAutoFeatConfig is the paper's configuration with the runner seed.
func DefaultAutoFeatConfig(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

// runAutoFeat evaluates AutoFeat from a cached ranking.
func (r *Runner) runAutoFeat(d *datagen.Dataset, s Setting, factory ml.Factory, cfg core.Config) (*MethodResult, error) {
	e, err := r.autofeatRanking(d.Spec.Name, s, cfg)
	if err != nil {
		return nil, err
	}
	res, err := e.disc.EvaluateRanking(e.ranking, factory)
	if err != nil {
		return nil, err
	}
	return &MethodResult{
		Dataset: d.Spec.Name, Setting: s, Method: "autofeat", Model: factory.Name,
		Accuracy: res.Best.Eval.Accuracy, AUC: res.Best.Eval.AUC,
		TablesJoined:  len(res.Best.Path.Edges),
		SelectionTime: res.SelectionTime, TotalTime: res.TotalTime,
	}, nil
}

// Sweep runs methods × models over every dataset in a setting, caching the
// result so Figures 1 and 4–7 share measurements.
func (r *Runner) Sweep(s Setting, methods []string, models []ml.Factory) ([]MethodResult, error) {
	key := fmt.Sprintf("%s/%v/%s", s, methods, modelNames(models))
	if res, ok := r.sweeps[key]; ok {
		return res, nil
	}
	var out []MethodResult
	for _, spec := range r.Specs {
		for _, method := range methods {
			if skip(method, spec) {
				continue
			}
			for _, factory := range models {
				mr, err := r.RunMethod(spec.Name, s, method, factory)
				if err != nil {
					return nil, fmt.Errorf("bench: %s/%s/%s/%s: %w", spec.Name, s, method, factory.Name, err)
				}
				r.logf("  %s %s %s %s: acc=%.3f sel=%v total=%v joined=%d",
					spec.Name, s, method, factory.Name, mr.Accuracy, mr.SelectionTime, mr.TotalTime, mr.TablesJoined)
				out = append(out, *mr)
			}
		}
	}
	r.sweeps[key] = out
	return out, nil
}

// skip mirrors the paper's presentation: JoinAll variants are omitted on
// the widest star schema (school) and the widest lake (bioresponse), where
// the paper's exhaustive ordering count (Equation 3) made them time out.
func skip(method string, spec datagen.Spec) bool {
	if method != "joinall" && method != "joinall+f" {
		return false
	}
	return spec.Name == "school" || spec.Name == "bioresponse"
}

func modelNames(models []ml.Factory) string {
	out := ""
	for i, m := range models {
		if i > 0 {
			out += ","
		}
		out += m.Name
	}
	return out
}

// aggregate groups results by (dataset, method) averaging over models.
type aggKey struct {
	dataset string
	method  string
}

type aggVal struct {
	acc, auc     float64
	selTime      time.Duration
	totalTime    time.Duration
	tablesJoined int
	n            int
}

func aggregateByDatasetMethod(results []MethodResult) map[aggKey]*aggVal {
	out := make(map[aggKey]*aggVal)
	for _, mr := range results {
		k := aggKey{mr.Dataset, mr.Method}
		v := out[k]
		if v == nil {
			v = &aggVal{}
			out[k] = v
		}
		v.acc += mr.Accuracy
		v.auc += mr.AUC
		v.selTime += mr.SelectionTime
		v.totalTime += mr.TotalTime
		v.tablesJoined = mr.TablesJoined
		v.n++
	}
	for _, v := range out {
		v.acc /= float64(v.n)
		v.auc /= float64(v.n)
		v.selTime /= time.Duration(v.n)
		v.totalTime /= time.Duration(v.n)
	}
	return out
}
