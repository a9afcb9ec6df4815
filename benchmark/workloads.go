package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"

	"autofeat"
)

// Workload kinds: how requests reach the system.
const (
	kindOneShot  = "one-shot" // autofeat.Discover on a fresh open of the lake
	kindResident = "resident" // Lake.Discover on a lake opened at set-up
	kindServed   = "served"   // HTTP jobs against an `autofeat serve` process
)

// workload is one set of inputs the benchmark runs. Rates are absolute
// numbers, never derived from the host, so two hosts run the same load.
type workload struct {
	Name  string    `json:"name"`
	Why   string    `json:"why"`
	Kind  string    `json:"kind"`
	Shape lakeShape `json:"shape"`
	// Lakes is how many lakes of the shape a run draws from its seed; an
	// in-process run sends its requests to them in turn, so its latency
	// reflects the cost over lakes, not one lake's values. Served runs
	// use one lake. Lake k's seed is -seed + LakeSeedOffset + 1000k.
	Lakes          int   `json:"lakes"`
	LakeSeedOffset int64 `json:"lake_seed_offset"`
	// Model trains on the top-k paths of in-process requests ("" ranks
	// only). Depth overrides DefaultConfig when non-zero.
	Model string `json:"model,omitempty"`
	Depth int    `json:"depth,omitempty"`

	// Served workloads: job arrivals per second, one job in every
	// ModelEvery trains lightgbm, job seeds are dealt from 1..JobSeeds,
	// and WriteRate is table replaces per second.
	Rate       float64 `json:"rate,omitempty"`
	ModelEvery int     `json:"model_every,omitempty"`
	JobSeeds   int     `json:"job_seeds,omitempty"`
	WriteRate  float64 `json:"write_rate,omitempty"`

	// MaxRequests caps the requests of one measured phase; 0 leaves the
	// phase bounded by its duration alone. The smoke test sets it.
	MaxRequests int `json:"max_requests,omitempty"`
}

var workloads = []workload{
	{
		Name: "cold-augment", Kind: kindOneShot,
		Why:   "one-shot query of a CLI or notebook user: fresh open, DRG build, ranking and lightgbm on the top-k paths; nothing is shared, model train/eval dominates",
		Shape: lakeShape{Name: "cold", Rows: 1000, Tables: 6, Features: 18}, Lakes: 8,
		Model: "lightgbm",
	},
	{
		Name: "warm-rank", Kind: kindResident,
		Why:   "resident lake, identical ranking-only requests: the offline phase is paid once and ml is bypassed, so feature selection (MRMR redundancy) dominates",
		Shape: lakeShape{Name: "warm", Rows: 1500, Tables: 8, Features: 28}, Lakes: 8,
	},
	{
		Name: "serve-read", Kind: kindServed, Lakes: 1, LakeSeedOffset: 300,
		Why:   "independent users at a fixed rate against autofeat serve, 1 in 4 jobs trains lightgbm; queueing shows in p90 and four job seeds share key indexes",
		Shape: lakeShape{Name: "wide", Rows: 2000, Tables: 12, Features: 42},
		Depth: 2, Rate: 2.5, ModelEvery: 4, JobSeeds: 4,
	},
	{
		Name: "serve-write", Kind: kindServed, Lakes: 1, LakeSeedOffset: 300,
		Why:   "serve-read traffic plus one table replace per second; each replace evicts sketches and key indexes and patches the DRG, so caches that cost writes show here",
		Shape: lakeShape{Name: "wide", Rows: 2000, Tables: 12, Features: 42},
		Depth: 2, Rate: 2.5, ModelEvery: 4, JobSeeds: 4, WriteRate: 1,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config returns the discovery configuration of one request.
func (w workload) config(seed int64) autofeat.Config {
	cfg := autofeat.DefaultConfig()
	if w.Depth > 0 {
		cfg.MaxDepth = w.Depth
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	return cfg
}

// jobClass is one kind of served request; every job of a class must
// produce the same job document result.
type jobClass struct {
	Model string
	Seed  int64
}

func (c jobClass) String() string { return fmt.Sprintf("model=%q seed=%d", c.Model, c.Seed) }

// classes lists the request classes of the workload.
func (w workload) classes() []jobClass {
	if w.Kind != kindServed {
		return []jobClass{{Model: w.Model}}
	}
	var out []jobClass
	for _, m := range []string{"", "lightgbm"} {
		for s := 1; s <= w.JobSeeds; s++ {
			out = append(out, jobClass{Model: m, Seed: int64(s)})
		}
	}
	return out
}

// references computes the expected output of every request class with
// the root API on a fresh open of the CSV lake and one worker, so every
// timed response is checked against a sequential run on the other
// storage backend.
func (w workload) references(ctx context.Context, lakeDir, base string) (map[jobClass]string, error) {
	lk, err := autofeat.OpenLake(lakeDir, autofeat.WithFormat(autofeat.FormatCSV))
	if err != nil {
		return nil, err
	}
	refs := map[jobClass]string{}
	for _, c := range w.classes() {
		cfg := w.config(c.Seed)
		cfg.Workers = 1
		res, err := lk.Discover(ctx, autofeat.Request{Base: base, Label: "target", Model: c.Model, Config: &cfg})
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", c, err)
		}
		if w.Kind == kindServed {
			refs[c] = resultSummary(res).String()
		} else {
			refs[c] = fingerprint(res.Ranking, res.Augment)
		}
	}
	return refs, nil
}

// fingerprint digests a ranking (edges, score bits and features of every
// path) and, when a model ran, the best path and its accuracy bits.
func fingerprint(r *autofeat.Ranking, a *autofeat.AugmentResult) string {
	h := sha256.New()
	for _, p := range r.Paths {
		for _, e := range p.Edges {
			fmt.Fprintf(h, "%s.%s>%s.%s;", e.A, e.ColA, e.B, e.ColB)
		}
		fmt.Fprintf(h, "|%x|%s\n", math.Float64bits(p.Score), strings.Join(p.Features, ","))
	}
	if a != nil {
		fmt.Fprintf(h, "best %s %x\n", a.Best.Path, math.Float64bits(a.Best.Eval.Accuracy))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// jobResult is the part of a served job's result document the benchmark
// checks and counts.
type jobResult struct {
	Paths            int     `json:"paths"`
	Explored         int     `json:"explored"`
	Pruned           int     `json:"pruned"`
	BestPath         string  `json:"best_path"`
	BestAccuracy     float64 `json:"best_accuracy"`
	GraphEdges       int     `json:"graph_edges"`
	CacheHitsDelta   int64   `json:"cache_hits_delta"`
	CacheMissesDelta int64   `json:"cache_misses_delta"`
}

// String renders the checked fields, accuracy as its exact bits.
func (r jobResult) String() string {
	return fmt.Sprintf("paths=%d explored=%d pruned=%d best=%q acc=%x",
		r.Paths, r.Explored, r.Pruned, r.BestPath, math.Float64bits(r.BestAccuracy))
}

// resultSummary is what a job document reports for res.
func resultSummary(res *autofeat.LakeResult) jobResult {
	r := jobResult{
		Paths:    len(res.Ranking.Paths),
		Explored: res.Ranking.PathsExplored,
		Pruned:   res.Ranking.Prune.Total(),
	}
	if a := res.Augment; a != nil {
		r.BestPath = a.Best.Path.String()
		r.BestAccuracy = a.Best.Eval.Accuracy
	}
	return r
}
