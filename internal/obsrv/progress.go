package obsrv

import (
	"sync"
	"sync/atomic"
	"time"

	"autofeat/internal/telemetry"
)

// Run phases reported by RunProgress.Snapshot, in pipeline order. The
// discovery loop advances through sample → discover → rank → ranked; the
// evaluation phase adds materialize → train → done.
const (
	// PhasePending is the phase before the run's first Begin call.
	PhasePending = "pending"
	// PhaseSample covers the stratified base-table sample.
	PhaseSample = "sample"
	// PhaseDiscover covers the BFS traversal (Algorithm 1).
	PhaseDiscover = "discover"
	// PhaseRank covers the final Algorithm 2 ordering.
	PhaseRank = "rank"
	// PhaseRanked is the resting state between discovery and evaluation.
	PhaseRanked = "ranked"
	// PhaseMaterialize covers full-size path materialisation.
	PhaseMaterialize = "materialize"
	// PhaseTrain covers model training on the top-k paths.
	PhaseTrain = "train"
	// PhaseDone is the terminal state set by Finish.
	PhaseDone = "done"
)

// pruneReasons fixes the per-reason counter layout of RunProgress: one
// atomic cell per telemetry pruning reason, so hot-path increments never
// touch a map or a lock.
var pruneReasons = []string{
	telemetry.PruneSimilarity,
	telemetry.PruneJoinFailed,
	telemetry.PruneQualityBelowTau,
	telemetry.PruneBeamEvicted,
	telemetry.PruneBudgetExhausted,
	telemetry.PruneCancelled,
}

// pruneSlot maps a reason name to its cell index (-1 when unknown).
func pruneSlot(reason string) int {
	for i, r := range pruneReasons {
		if r == reason {
			return i
		}
	}
	return -1
}

// RunProgress is the lock-cheap live tracker behind the introspection
// server's /runs/{id} endpoint. The discovery loop updates it from every
// worker goroutine while HTTP handlers read it concurrently, so the hot
// fields are atomics; the rarely-written strings (phase, partial reason)
// sit behind a mutex that is never taken per join.
//
// A nil *RunProgress is a valid disabled tracker: every method no-ops, so
// core threads `prog.X(...)` calls unconditionally — the same contract as
// the telemetry collector.
type RunProgress struct {
	id string

	mu            sync.Mutex
	base, label   string
	phase         string
	partialReason string

	startedUnixMS atomic.Int64
	endedUnixMS   atomic.Int64

	depth, maxDepth, frontier  atomic.Int64
	depthCandidates, depthDone atomic.Int64
	joinsEnumerated            atomic.Int64
	joinsEvaluated             atomic.Int64
	pathsKept                  atomic.Int64
	pruned                     [6]atomic.Int64 // indexed by pruneSlot

	workers, workersBusy atomic.Int64

	timeoutNS    atomic.Int64
	maxEvalJoins atomic.Int64

	partial atomic.Bool
	done    atomic.Bool
}

// NewRunProgress returns a tracker identified by id (the /runs/{id} URL
// segment). Attach it to core.Config.Progress and register it with a
// Server to make the run observable while it executes.
func NewRunProgress(id string) *RunProgress {
	return &RunProgress{id: id, phase: PhasePending}
}

// ID returns the tracker's run identifier ("" for a nil tracker).
func (p *RunProgress) ID() string {
	if p == nil {
		return ""
	}
	return p.id
}

// Begin records the run's identity and limits and stamps the start time.
// Called once by Discovery.RunContext before the traversal starts.
func (p *RunProgress) Begin(base, label string, maxDepth int, timeout time.Duration, maxEvalJoins int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.base, p.label = base, label
	p.mu.Unlock()
	p.startedUnixMS.Store(time.Now().UnixMilli())
	p.maxDepth.Store(int64(maxDepth))
	p.timeoutNS.Store(int64(timeout))
	p.maxEvalJoins.Store(int64(maxEvalJoins))
}

// SetPhase advances the run to the named pipeline phase.
func (p *RunProgress) SetPhase(phase string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.phase = phase
	p.mu.Unlock()
}

// SetWorkers records the resolved worker-pool size.
func (p *RunProgress) SetWorkers(n int) {
	if p == nil {
		return
	}
	p.workers.Store(int64(n))
}

// BeginDepth opens one BFS level: its 1-based depth and frontier size.
// The per-depth candidate and completion counters reset.
func (p *RunProgress) BeginDepth(depth, frontier int) {
	if p == nil {
		return
	}
	p.depth.Store(int64(depth))
	p.frontier.Store(int64(frontier))
	p.depthCandidates.Store(0)
	p.depthDone.Store(0)
}

// AddEnumerated counts candidate joins enumerated (pre-pruning) at the
// current depth.
func (p *RunProgress) AddEnumerated(n int) {
	if p == nil {
		return
	}
	p.joinsEnumerated.Add(int64(n))
}

// SetDepthCandidates records how many of the enumerated candidates will
// actually be evaluated this depth (after caps and budgets).
func (p *RunProgress) SetDepthCandidates(n int) {
	if p == nil {
		return
	}
	p.depthCandidates.Store(int64(n))
}

// JoinStart marks one worker busy on a join evaluation.
func (p *RunProgress) JoinStart() {
	if p == nil {
		return
	}
	p.workersBusy.Add(1)
}

// JoinDone marks one join evaluation finished: the worker frees up, the
// evaluated and per-depth counters advance, and a non-empty prune reason
// is tallied.
func (p *RunProgress) JoinDone(pruneReason string) {
	if p == nil {
		return
	}
	p.workersBusy.Add(-1)
	p.joinsEvaluated.Add(1)
	p.depthDone.Add(1)
	if pruneReason != "" {
		p.AddPruned(pruneReason, 1)
	}
}

// AddPruned tallies n prunes under the given telemetry reason. Unknown
// reasons are dropped (the reason vocabulary is fixed in telemetry).
func (p *RunProgress) AddPruned(reason string, n int) {
	if p == nil || n == 0 {
		return
	}
	if i := pruneSlot(reason); i >= 0 {
		p.pruned[i].Add(int64(n))
	}
}

// AddPathsKept counts paths that survived into the ranking.
func (p *RunProgress) AddPathsKept(n int) {
	if p == nil {
		return
	}
	p.pathsKept.Add(int64(n))
}

// MarkPartial flags the run partial under reason; the first cause wins,
// mirroring Ranking.PartialReason.
func (p *RunProgress) MarkPartial(reason string) {
	if p == nil {
		return
	}
	if p.partial.CompareAndSwap(false, true) {
		p.mu.Lock()
		p.partialReason = reason
		p.mu.Unlock()
	}
}

// Finish moves the run to the done phase and stamps the end time.
func (p *RunProgress) Finish() {
	if p == nil {
		return
	}
	p.SetPhase(PhaseDone)
	p.done.Store(true)
	p.endedUnixMS.Store(time.Now().UnixMilli())
}

// RunBudgets is the budget section of a RunStatus: configured limits and
// live consumption. Zero limits mean "unlimited".
type RunBudgets struct {
	TimeoutSeconds float64 `json:"timeout_seconds"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	MaxEvalJoins   int64   `json:"max_eval_joins"`
	EvalJoinsUsed  int64   `json:"eval_joins_used"`
}

// RunStatus is the JSON document served at /runs/{id}: a point-in-time
// view of an in-flight (or finished) run.
type RunStatus struct {
	ID            string           `json:"id"`
	Base          string           `json:"base"`
	Label         string           `json:"label"`
	Phase         string           `json:"phase"`
	StartedUnixMS int64            `json:"started_unix_ms"`
	Depth         int64            `json:"depth"`
	MaxDepth      int64            `json:"max_depth"`
	Frontier      int64            `json:"frontier"`
	DepthJoins    int64            `json:"depth_joins"`
	DepthDone     int64            `json:"depth_done"`
	Enumerated    int64            `json:"joins_enumerated"`
	Evaluated     int64            `json:"joins_evaluated"`
	PathsKept     int64            `json:"paths_kept"`
	Pruned        map[string]int64 `json:"pruned"`
	Budgets       RunBudgets       `json:"budgets"`
	Workers       int64            `json:"workers"`
	WorkersBusy   int64            `json:"workers_busy"`
	Partial       bool             `json:"partial"`
	PartialReason string           `json:"partial_reason,omitempty"`
	Done          bool             `json:"done"`
}

// Snapshot captures the tracker's current state. The numbers are read
// individually (no global lock), so a snapshot taken mid-depth is a
// consistent-enough live view, not a serialised checkpoint. A nil tracker
// yields a zero status.
func (p *RunProgress) Snapshot() RunStatus {
	if p == nil {
		return RunStatus{}
	}
	p.mu.Lock()
	st := RunStatus{
		ID:            p.id,
		Base:          p.base,
		Label:         p.label,
		Phase:         p.phase,
		PartialReason: p.partialReason,
	}
	p.mu.Unlock()
	st.StartedUnixMS = p.startedUnixMS.Load()
	st.Depth = p.depth.Load()
	st.MaxDepth = p.maxDepth.Load()
	st.Frontier = p.frontier.Load()
	st.DepthJoins = p.depthCandidates.Load()
	st.DepthDone = p.depthDone.Load()
	st.Enumerated = p.joinsEnumerated.Load()
	st.Evaluated = p.joinsEvaluated.Load()
	st.PathsKept = p.pathsKept.Load()
	st.Pruned = make(map[string]int64, len(pruneReasons))
	for i, r := range pruneReasons {
		if v := p.pruned[i].Load(); v > 0 {
			st.Pruned[r] = v
		}
	}
	st.Workers = p.workers.Load()
	st.WorkersBusy = p.workersBusy.Load()
	st.Partial = p.partial.Load()
	st.Done = p.done.Load()

	st.Budgets = RunBudgets{
		TimeoutSeconds: time.Duration(p.timeoutNS.Load()).Seconds(),
		MaxEvalJoins:   p.maxEvalJoins.Load(),
		EvalJoinsUsed:  st.Evaluated,
	}
	if start := st.StartedUnixMS; start > 0 {
		end := p.endedUnixMS.Load()
		if end == 0 {
			end = time.Now().UnixMilli()
		}
		st.Budgets.ElapsedSeconds = float64(end-start) / 1e3
	}
	return st
}
