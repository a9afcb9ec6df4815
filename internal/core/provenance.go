package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// ManifestSchema identifies the run_manifest.json document format; bump it
// when the manifest shape changes incompatibly.
const ManifestSchema = "autofeat/run-manifest/v1"

// Manifest is the per-run provenance record: a config snapshot, the graph
// inventory the run saw, and the full lineage of every ranked path — which
// joins were taken, the similarity and data-quality value at each decision
// point, and the relevance/redundancy score each selected feature carried.
// The path data is a pure function of the ranking, so manifests from runs
// with different worker counts are bit-identical apart from CreatedUnixMS
// and the timing fields.
type Manifest struct {
	// Schema is always ManifestSchema, so readers can reject foreign JSON.
	Schema string `json:"schema"`
	// CreatedUnixMS is the manifest creation time (Unix milliseconds).
	CreatedUnixMS int64 `json:"created_unix_ms"`
	// RunID labels the run when an introspection RunProgress was attached;
	// empty otherwise.
	RunID string `json:"run_id,omitempty"`
	// TraceID is the 32-hex-digit trace identity of the request that
	// produced this manifest (log<->trace<->manifest correlation); empty
	// for untraced runs, keeping their manifests byte-identical to
	// pre-tracing output.
	TraceID string `json:"trace_id,omitempty"`
	// Base and Label identify the prediction task: the base table node and
	// the fully-qualified label column.
	Base  string `json:"base"`
	Label string `json:"label"`
	// Config is the hyper-parameter snapshot the run executed with.
	Config ConfigSnapshot `json:"config"`
	// Tables inventories every node of the Dataset Relation Graph, sorted
	// by name.
	Tables []TableInfo `json:"tables"`
	// Edges inventories every join opportunity incident to the graph, each
	// undirected edge listed once, oriented lexicographically.
	Edges []EdgeInfo `json:"edges"`
	// PathsExplored counts every join evaluated, including pruned ones.
	PathsExplored int `json:"paths_explored"`
	// Pruned is the by-reason pruning breakdown of the run.
	Pruned PruneStats `json:"pruned"`
	// Partial and PartialReason mirror Ranking.Partial/PartialReason: the
	// search stopped early and Paths covers only what was reached.
	Partial       bool   `json:"partial"`
	PartialReason string `json:"partial_reason,omitempty"`
	// SelectionSeconds is the feature-discovery wall-clock time.
	SelectionSeconds float64 `json:"selection_seconds"`
	// TotalSeconds adds materialisation and training time; zero until an
	// evaluation is attached.
	TotalSeconds float64 `json:"total_seconds,omitempty"`
	// Paths is the ranked lineage, best first; IDs are "path-001" and up
	// in rank order.
	Paths []PathLineage `json:"paths"`
	// Evaluations records the model scores of the top-k paths when
	// AttachEvaluation was called; nil for a discovery-only manifest.
	Evaluations []EvalRecord `json:"evaluations,omitempty"`
	// BestPath is the PathID of the winning evaluation ("base" when the
	// un-augmented baseline won); empty for a discovery-only manifest.
	BestPath string `json:"best_path,omitempty"`
}

// ConfigSnapshot is the JSON-stable image of a Config: plain values only,
// with the pluggable metrics recorded by name.
type ConfigSnapshot struct {
	// Tau is the data-quality threshold τ.
	Tau float64 `json:"tau"`
	// Kappa is the per-table relevance cap κ.
	Kappa int `json:"kappa"`
	// Relevance and Redundancy name the configured metrics ("spearman",
	// "mrmr", ...); "none" when the stage was disabled.
	Relevance  string `json:"relevance"`
	Redundancy string `json:"redundancy"`
	// TopK, MaxDepth, SampleSize and BeamWidth mirror the Config fields
	// of the same names.
	TopK       int `json:"top_k"`
	MaxDepth   int `json:"max_depth"`
	SampleSize int `json:"sample_size"`
	BeamWidth  int `json:"beam_width"`
	// SimilarityPruning mirrors the Config toggle.
	SimilarityPruning bool `json:"similarity_pruning"`
	// Seed is the run's random seed.
	Seed int64 `json:"seed"`
	// Workers is the configured worker count (0 = GOMAXPROCS).
	Workers int `json:"workers"`
	// TimeoutSeconds and MaxEvalJoins are the run budgets; zero means
	// unlimited.
	TimeoutSeconds float64 `json:"timeout_seconds"`
	MaxEvalJoins   int     `json:"max_eval_joins"`
}

// TableInfo is one node of the graph inventory.
type TableInfo struct {
	// Name is the node (dataset) name.
	Name string `json:"name"`
	// Rows and Cols are the table's dimensions.
	Rows int `json:"rows"`
	Cols int `json:"cols"`
}

// EdgeInfo is one join opportunity of the graph inventory.
type EdgeInfo struct {
	// From/FromCol and To/ToCol are the two sides of the candidate join.
	From    string `json:"from"`
	FromCol string `json:"from_col"`
	To      string `json:"to"`
	ToCol   string `json:"to_col"`
	// Similarity is the edge's similarity score in (0,1].
	Similarity float64 `json:"similarity"`
	// KFK marks edges that came from an integrity constraint.
	KFK bool `json:"kfk,omitempty"`
}

// PathLineage is the full provenance of one ranked join path.
type PathLineage struct {
	// ID is the stable handle "path-NNN", assigned in rank order from 1.
	ID string `json:"id"`
	// Rank is the 1-based position in the ranking.
	Rank int `json:"rank"`
	// Score is the Algorithm 2 ranking score.
	Score float64 `json:"score"`
	// Quality is the lowest hop completeness along the path.
	Quality float64 `json:"quality"`
	// Hops is the join sequence from the base table with the similarity
	// and data-quality value observed at each decision point.
	Hops []HopLineage `json:"hops"`
	// Features lists the selected features in selection order with the
	// scores they were selected at.
	Features []FeatureLineage `json:"features"`
}

// HopLineage is one join decision along a path.
type HopLineage struct {
	// From/FromCol and To/ToCol are the executed join's two sides.
	From    string `json:"from"`
	FromCol string `json:"from_col"`
	To      string `json:"to"`
	ToCol   string `json:"to_col"`
	// Similarity is the edge weight that let the hop survive similarity
	// pruning.
	Similarity float64 `json:"similarity"`
	// Quality is the completeness (non-null ratio) measured over the
	// columns this hop added — the value compared against τ.
	Quality float64 `json:"quality"`
}

// FeatureLineage is one selected feature with its decision-point scores.
type FeatureLineage struct {
	// Name is the fully-qualified feature column.
	Name string `json:"name"`
	// Relevance is the relevance score the feature ranked with.
	Relevance float64 `json:"relevance"`
	// Redundancy is the redundancy J score the feature was accepted with.
	Redundancy float64 `json:"redundancy"`
}

// EvalRecord is one trained model outcome attached to the manifest.
type EvalRecord struct {
	// PathID references a PathLineage ID, or "base" for the un-augmented
	// baseline candidate.
	PathID string `json:"path_id"`
	// Model names the classifier.
	Model string `json:"model"`
	// Accuracy, AUC and F1 are the held-out test scores.
	Accuracy float64 `json:"accuracy"`
	AUC      float64 `json:"auc"`
	F1       float64 `json:"f1"`
}

// BasePathID is the EvalRecord PathID of the un-augmented baseline.
const BasePathID = "base"

// Manifest builds the provenance manifest of a completed ranking: config
// snapshot, graph inventory and per-path lineage. Attach model outcomes
// afterwards with AttachEvaluation.
func (d *Discovery) Manifest(r *Ranking) *Manifest {
	m := &Manifest{
		Schema:           ManifestSchema,
		CreatedUnixMS:    time.Now().UnixMilli(),
		Base:             d.baseName,
		Label:            d.label,
		Config:           d.cfg.snapshot(),
		PathsExplored:    r.PathsExplored,
		Pruned:           r.Prune,
		Partial:          r.Partial,
		PartialReason:    r.PartialReason,
		SelectionSeconds: r.SelectionTime.Seconds(),
	}
	if p := d.cfg.Progress; p != nil {
		m.RunID = p.ID()
	}
	for _, name := range d.g.Nodes() {
		t := d.g.Table(name)
		m.Tables = append(m.Tables, TableInfo{Name: name, Rows: t.NumRows(), Cols: t.NumCols()})
		for _, e := range d.g.EdgesFrom(name) {
			// Each undirected edge appears under both endpoints; keep the
			// lexicographically-oriented copy only.
			if e.A > e.B || (e.A == e.B && e.ColA > e.ColB) {
				continue
			}
			m.Edges = append(m.Edges, EdgeInfo{
				From: e.A, FromCol: e.ColA, To: e.B, ToCol: e.ColB,
				Similarity: e.Weight, KFK: e.KFK,
			})
		}
	}
	for i, p := range r.Paths {
		m.Paths = append(m.Paths, pathLineage(i, p))
	}
	return m
}

// snapshot renders the config as its JSON-stable image.
func (c Config) snapshot() ConfigSnapshot {
	rel, red := "none", "none"
	if c.Relevance != nil {
		rel = c.Relevance.Name()
	}
	if c.Redundancy != nil {
		red = c.Redundancy.Name()
	}
	return ConfigSnapshot{
		Tau: c.Tau, Kappa: c.Kappa, Relevance: rel, Redundancy: red,
		TopK: c.TopK, MaxDepth: c.MaxDepth, SampleSize: c.SampleSize,
		BeamWidth: c.BeamWidth, SimilarityPruning: c.SimilarityPruning,
		Seed: c.Seed, Workers: c.Workers,
		TimeoutSeconds: c.Timeout.Seconds(),
		MaxEvalJoins:   c.MaxEvalJoins,
	}
}

// pathLineage converts the i-th ranked path (0-based) into its lineage.
func pathLineage(i int, p RankedPath) PathLineage {
	pl := PathLineage{
		ID:      fmt.Sprintf("path-%03d", i+1),
		Rank:    i + 1,
		Score:   p.Score,
		Quality: p.Quality,
	}
	for h, e := range p.Edges {
		hop := HopLineage{
			From: e.A, FromCol: e.ColA, To: e.B, ToCol: e.ColB,
			Similarity: e.Weight,
		}
		if h < len(p.Qualities) {
			hop.Quality = p.Qualities[h]
		}
		pl.Hops = append(pl.Hops, hop)
	}
	for j, f := range p.Features {
		fl := FeatureLineage{Name: f}
		if j < len(p.RelScores) {
			fl.Relevance = p.RelScores[j]
		}
		if j < len(p.RedScores) {
			fl.Redundancy = p.RedScores[j]
		}
		pl.Features = append(pl.Features, fl)
	}
	return pl
}

// AttachEvaluation records the model outcomes of an AugmentResult on the
// manifest: one EvalRecord per evaluated candidate (candidate 0 is always
// the un-augmented baseline, PathID "base"), the winner under BestPath, and
// the run's total time. The partial flags are widened when evaluation
// stopped earlier than discovery did.
func (m *Manifest) AttachEvaluation(res *AugmentResult) {
	m.Evaluations = m.Evaluations[:0]
	for i, pe := range res.Evaluated {
		id := BasePathID
		if i > 0 {
			id = fmt.Sprintf("path-%03d", i)
		}
		m.Evaluations = append(m.Evaluations, EvalRecord{
			PathID: id, Model: pe.Eval.Model,
			Accuracy: pe.Eval.Accuracy, AUC: pe.Eval.AUC, F1: pe.Eval.F1,
		})
		if pe.Eval == res.Best.Eval && samePath(pe.Path, res.Best.Path) {
			m.BestPath = id
		}
	}
	m.TotalSeconds = res.TotalTime.Seconds()
	if res.Partial && !m.Partial {
		m.Partial, m.PartialReason = true, res.PartialReason
	}
}

// samePath reports whether two ranked paths describe the same join path.
func samePath(a, b RankedPath) bool {
	if len(a.Edges) != len(b.Edges) || a.Score != b.Score {
		return false
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			return false
		}
	}
	return true
}

// PathByID returns the lineage with the given ID, or nil.
func (m *Manifest) PathByID(id string) *PathLineage {
	for i := range m.Paths {
		if m.Paths[i].ID == id {
			return &m.Paths[i]
		}
	}
	return nil
}

// Write renders the manifest as indented JSON.
func (m *Manifest) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// WriteManifestFile writes the manifest to path as indented JSON.
func WriteManifestFile(path string, m *Manifest) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadManifestFile parses a run_manifest.json document, rejecting files
// whose schema field does not match ManifestSchema.
func ReadManifestFile(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("core: manifest %s: %w", path, err)
	}
	if m.Schema != ManifestSchema {
		return nil, fmt.Errorf("core: manifest %s: schema %q, want %q", path, m.Schema, ManifestSchema)
	}
	return &m, nil
}

// Explain pretty-prints one path's lineage — the `autofeat explain`
// subcommand's engine. id may be a PathLineage ID ("path-003"), the bare
// rank number ("3"), or "base" for the baseline evaluation.
func (m *Manifest) Explain(w io.Writer, id string) error {
	if id == BasePathID {
		fmt.Fprintf(w, "base table %s (no augmentation)\n", m.Base)
		m.explainEval(w, BasePathID)
		return nil
	}
	p := m.PathByID(id)
	if p == nil {
		// Accept a bare rank number as shorthand.
		var rank int
		if _, err := fmt.Sscanf(id, "%d", &rank); err == nil && rank >= 1 {
			p = m.PathByID(fmt.Sprintf("path-%03d", rank))
		}
	}
	if p == nil {
		return fmt.Errorf("core: no path %q in manifest (%d paths, IDs path-001..path-%03d)", id, len(m.Paths), len(m.Paths))
	}
	fmt.Fprintf(w, "%s  rank %d of %d  score %.6f  quality %.4f\n",
		p.ID, p.Rank, len(m.Paths), p.Score, p.Quality)
	fmt.Fprintf(w, "base: %s  label: %s  (tau=%.2f kappa=%d relevance=%s redundancy=%s seed=%d)\n",
		m.Base, m.Label, m.Config.Tau, m.Config.Kappa,
		m.Config.Relevance, m.Config.Redundancy, m.Config.Seed)
	fmt.Fprintf(w, "hops (%d):\n", len(p.Hops))
	for i, h := range p.Hops {
		fmt.Fprintf(w, "  %d. %s.%s -> %s.%s  similarity=%.4f  quality=%.4f\n",
			i+1, h.From, h.FromCol, h.To, h.ToCol, h.Similarity, h.Quality)
	}
	fmt.Fprintf(w, "features (%d):\n", len(p.Features))
	for i, f := range p.Features {
		fmt.Fprintf(w, "  %d. %-40s relevance=%.6f redundancy=%.6f\n",
			i+1, f.Name, f.Relevance, f.Redundancy)
	}
	m.explainEval(w, p.ID)
	if m.Partial {
		fmt.Fprintf(w, "note: partial run (%s) — ranking covers only the search space reached before the stop\n", m.PartialReason)
	}
	return nil
}

// explainEval prints the model outcome attached for id, when present.
func (m *Manifest) explainEval(w io.Writer, id string) {
	for _, e := range m.Evaluations {
		if e.PathID == id {
			best := ""
			if m.BestPath == id {
				best = "  (best)"
			}
			fmt.Fprintf(w, "model: %s  accuracy=%.4f auc=%.4f f1=%.4f%s\n",
				e.Model, e.Accuracy, e.AUC, e.F1, best)
			return
		}
	}
}
