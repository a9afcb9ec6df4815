package serve

// The JSON job store behind the cluster coordinator: every accepted
// discovery job (and every registered lake) is recorded here before it
// is dispatched to a worker, so a queued job survives the death of the
// worker it was routed to — the coordinator re-dispatches it to the
// lake's next owner. The store is a plain JSON document, persisted
// atomically to the coordinator's file after every mutation (when a
// path is configured). That file is the store's one durable copy: a
// restarted coordinator recovers its queue from it.

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"
)

// ProtoVersion is the cluster wire-protocol version stamped into every
// inter-node message (heartbeats, telemetry and trace replies) and into
// the job-store file.
// Nodes reject messages from a different major version; within one
// major version, compatibility rule is additive-only: new optional JSON
// fields may appear and must be ignored when unknown.
const ProtoVersion = "autofeat/cluster/v1"

// Cluster-level job states. A job is "queued" until a worker accepts
// it, "dispatched" while a worker holds it, and terminal afterwards;
// terminal states mirror the worker-level ones so clients see one
// vocabulary on both planes.
const (
	// ClusterQueued is a job recorded in the store but not accepted by
	// any worker yet (never dispatched, worker busy, or awaiting reroute
	// after a worker death).
	ClusterQueued = "queued"
	// ClusterDispatched is a job accepted by a worker and not yet
	// observed in a terminal state.
	ClusterDispatched = "dispatched"
)

// StoredLake is one lake registration: the POST /v1/lakes body on a
// worker and on a coordinator, and the coordinator's store record of
// it, forwarded whole to whichever worker rendezvous hashing places the
// lake on.
type StoredLake struct {
	// ID fixes the lake's id instead of letting the service assign the
	// next "lake-NNN"; an existing lake under the same id is replaced
	// (re-opened). The coordinator always forwards its cluster-wide id,
	// so workers register the lake under it and submit bodies route
	// unchanged.
	ID string `json:"id"`
	// Dir is the lake directory to open (required). Workers must be able
	// to resolve it (shared filesystem or per-node copy).
	Dir string `json:"dir"`
	// Matcher is the lake's DRG matcher: "exact" (default) or
	// "sketched"; Threshold its matcher threshold (0 = 0.55). Both are
	// fixed for the lake's lifetime; every job against it uses them.
	Matcher   string  `json:"matcher,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	// Format selects the table file format: "auto" (default; columnar
	// .afc files shadow same-named CSVs), "csv" or "columnar".
	Format string `json:"format,omitempty"`
}

// StoredJob is the cluster-level record of one discovery job: the
// verbatim submit body (so a re-dispatched job runs bit-identically),
// its routing state, and the worker's terminal job document once one
// was observed.
type StoredJob struct {
	// ID is the cluster-wide job id ("cjob-000001").
	ID string `json:"id"`
	// Tenant is the quota bucket the job was admitted under (the
	// X-Tenant request header; empty = default tenant).
	Tenant string `json:"tenant,omitempty"`
	// Lake is the cluster lake id the job runs against.
	Lake string `json:"lake"`
	// Body is the original POST /v1/discoveries body, forwarded to
	// workers verbatim so defaults resolve identically everywhere.
	Body json.RawMessage `json:"body"`
	// Traceparent is the W3C trace context captured at submission and
	// propagated on every dispatch, so the worker's span tree joins the
	// submitting request's trace.
	Traceparent string `json:"traceparent,omitempty"`
	// State is the cluster-level job state: ClusterQueued,
	// ClusterDispatched, or a terminal worker state (done, failed,
	// cancelled).
	State string `json:"state"`
	// Worker and WorkerJob record the current assignment: the worker id
	// holding the job and the job's worker-local id there.
	Worker    string `json:"worker,omitempty"`
	WorkerJob string `json:"worker_job,omitempty"`
	// Attempts counts dispatch attempts; Rerouted counts how many times
	// the job moved to a new owner after a worker death.
	Attempts int `json:"attempts,omitempty"`
	Rerouted int `json:"rerouted,omitempty"`
	// NotBeforeUnixMS gates the next dispatch attempt (bounded backoff
	// after a failed or rejected dispatch); 0 = dispatch immediately.
	NotBeforeUnixMS int64 `json:"not_before_unix_ms,omitempty"`
	// SubmittedUnixMS is the coordinator-side admission time.
	SubmittedUnixMS int64 `json:"submitted_unix_ms"`
	// Result is the worker's terminal job document (the jobDoc schema),
	// cached so completed jobs outlive their worker.
	Result json.RawMessage `json:"result,omitempty"`
	// Error is the cluster-level failure reason for jobs that could not
	// be dispatched or were rejected by every owner.
	Error string `json:"error,omitempty"`
}

// storeDoc is the layout of the job-store file and of GET
// /cluster/v1/jobs.
type storeDoc struct {
	Proto    string        `json:"proto"`
	NextJob  int           `json:"next_job"`
	NextLake int           `json:"next_lake"`
	Lakes    []*StoredLake `json:"lakes"`
	Jobs     []*StoredJob  `json:"jobs"`
}

// JobStore is the coordinator's job/lake registry. All methods are safe
// for concurrent use; every mutation bumps a version counter and, when
// the store was opened with a path, atomically rewrites the JSON file.
type JobStore struct {
	mu          sync.Mutex
	path        string
	nextJob     int
	nextLake    int
	lakes       map[string]*StoredLake
	lakeIDs     []string
	jobs        map[string]*StoredJob
	jobIDs      []string
	version     int64
	maxTerminal int
	evicted     int64
}

// NewJobStore opens the job store at path, loading an existing snapshot
// if the file is present (the coordinator-restart recovery path). An
// empty path keeps the store in memory only.
func NewJobStore(path string) (*JobStore, error) {
	s := &JobStore{
		path:  path,
		lakes: map[string]*StoredLake{},
		jobs:  map[string]*StoredJob{},
	}
	if path == "" {
		return s, nil
	}
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: read job store %s: %w", path, err)
	}
	if err := s.load(b); err != nil {
		return nil, fmt.Errorf("serve: job store %s: %w", path, err)
	}
	return s, nil
}

// load replaces the store's contents with the given snapshot bytes. A
// snapshot with a null entry, an empty id or a repeated id is rejected
// whole and leaves the store unchanged.
func (s *JobStore) load(b []byte) error {
	var doc storeDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return err
	}
	if err := CheckProto(doc.Proto); err != nil {
		return err
	}
	lakes, lakeIDs, err := indexByID("lake", doc.Lakes, func(l *StoredLake) string { return l.ID })
	if err != nil {
		return err
	}
	jobs, jobIDs, err := indexByID("job", doc.Jobs, func(j *StoredJob) string { return j.ID })
	if err != nil {
		return err
	}
	for _, j := range jobs {
		// A snapshot written mid-dispatch may record a job as dispatched
		// to a worker that no longer remembers it; recovery re-queues
		// every non-terminal job and lets the sweep re-dispatch (safe:
		// rankings are deterministic, so a re-run is bit-identical).
		if j.State == ClusterDispatched {
			j.State = ClusterQueued
			j.Worker, j.WorkerJob = "", ""
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextJob, s.nextLake = doc.NextJob, doc.NextLake
	s.lakes, s.lakeIDs = lakes, lakeIDs
	s.jobs, s.jobIDs = jobs, jobIDs
	s.version++
	return nil
}

// indexByID maps a snapshot's entries by id, keeping their order; a
// null entry, an empty id or a repeated id is an error.
func indexByID[T any](kind string, entries []*T, id func(*T) string) (map[string]*T, []string, error) {
	byID := make(map[string]*T, len(entries))
	var ids []string
	for i, e := range entries {
		if e == nil || id(e) == "" {
			return nil, nil, fmt.Errorf("serve: job store %s entry %d is null or has no id", kind, i)
		}
		if _, dup := byID[id(e)]; dup {
			return nil, nil, fmt.Errorf("serve: job store repeats %s id %q", kind, id(e))
		}
		byID[id(e)] = e
		ids = append(ids, id(e))
	}
	return byID, ids, nil
}

// CheckProto validates a message's wire-protocol version against
// ProtoVersion: the family and major version must match exactly;
// anything else is a hard error (compatibility within a major version
// is additive-only, so no negotiation is needed).
func CheckProto(proto string) error {
	if proto != ProtoVersion {
		return fmt.Errorf("serve: wire protocol %q is not %q", proto, ProtoVersion)
	}
	return nil
}

// doc renders the store under the lock.
func (s *JobStore) doc() storeDoc {
	doc := storeDoc{Proto: ProtoVersion, NextJob: s.nextJob, NextLake: s.nextLake}
	for _, id := range s.lakeIDs {
		doc.Lakes = append(doc.Lakes, s.lakes[id])
	}
	for _, id := range s.jobIDs {
		doc.Jobs = append(doc.Jobs, s.jobs[id])
	}
	return doc
}

// Snapshot serialises the whole store as one JSON document — the GET
// /cluster/v1/jobs body.
func (s *JobStore) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, _ := json.MarshalIndent(s.doc(), "", "  ")
	return b
}

// Version reports the store's mutation counter, which the cluster
// status document shows.
func (s *JobStore) Version() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// SetRetention caps how many terminal job documents the store retains
// (0 = unbounded, the default). When a mutation pushes the terminal
// count past the cap, the oldest terminal docs are evicted FIFO;
// non-terminal jobs are never evicted.
func (s *JobStore) SetRetention(maxTerminal int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if maxTerminal < 0 {
		maxTerminal = 0
	}
	s.maxTerminal = maxTerminal
	if s.enforceRetention() {
		_ = s.persist() // a failed write is carried by the next successful one
	}
}

// Evicted reports how many terminal job documents the retention cap has
// dropped over the store's lifetime.
func (s *JobStore) Evicted() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicted
}

// terminalJobState reports whether a cluster-level job state is
// terminal (done, failed or cancelled — no further transitions).
func terminalJobState(state string) bool {
	switch state {
	case StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}

// enforceRetention drops the oldest terminal jobs past the cap. Callers
// hold the lock; reports whether anything was evicted.
func (s *JobStore) enforceRetention() bool {
	if s.maxTerminal <= 0 {
		return false
	}
	terminal := 0
	for _, id := range s.jobIDs {
		if terminalJobState(s.jobs[id].State) {
			terminal++
		}
	}
	if terminal <= s.maxTerminal {
		return false
	}
	kept := s.jobIDs[:0]
	for _, id := range s.jobIDs {
		if terminal > s.maxTerminal && terminalJobState(s.jobs[id].State) {
			delete(s.jobs, id)
			terminal--
			s.evicted++
			continue
		}
		kept = append(kept, id)
	}
	s.jobIDs = kept
	return true
}

// persist bumps the version and atomically rewrites the store file.
// Callers hold the lock.
func (s *JobStore) persist() error {
	s.enforceRetention()
	s.version++
	if s.path == "" {
		return nil
	}
	b, err := json.MarshalIndent(s.doc(), "", "  ")
	if err != nil {
		return err
	}
	if err := atomicWriteFile(s.path, append(b, '\n')); err != nil {
		return fmt.Errorf("serve: persist job store: %w", err)
	}
	return nil
}

// atomicWriteFile writes b to path via a same-directory temp file and
// rename, so readers never observe a partial file.
func atomicWriteFile(path string, b []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// AddLake records a lake registration and returns its id (assigning the
// next free "lake-NNN" when l.ID is empty). When the store file cannot
// be written it returns the error and keeps nothing: a registration a
// restart would lose is not admitted.
func (s *JobStore) AddLake(l StoredLake) (*StoredLake, error) {
	stored, _, err := s.addLake(l)
	return stored, err
}

// addLake is AddLake that also returns an undo, which puts the store
// back as it was before the registration: a new id is deleted, a
// replaced record is restored, and so is the lake-id counter. Undo
// leaves a record or counter that a later registration changed as it
// is. When the store file cannot be written, undo keeps the
// registration and returns the error.
func (s *JobStore) addLake(l StoredLake) (*StoredLake, func() error, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	nextLake := s.nextLake
	if l.ID == "" {
		l.ID = nextLakeID(&s.nextLake, func(id string) bool { return s.lakes[id] != nil })
	}
	prev, replaced := s.lakes[l.ID]
	if !replaced {
		s.lakeIDs = append(s.lakeIDs, l.ID)
	}
	s.lakes[l.ID] = &l
	if err := s.persist(); err != nil {
		s.nextLake = nextLake
		if replaced {
			s.lakes[l.ID] = prev
		} else {
			delete(s.lakes, l.ID)
			s.lakeIDs = s.lakeIDs[:len(s.lakeIDs)-1]
		}
		return nil, nil, err
	}
	added, counter := &l, s.nextLake
	undo := func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.lakes[l.ID] != added {
			return nil
		}
		now, at := s.nextLake, slices.Index(s.lakeIDs, l.ID)
		if now == counter {
			s.nextLake = nextLake
		}
		if replaced {
			s.lakes[l.ID] = prev
		} else {
			delete(s.lakes, l.ID)
			s.lakeIDs = slices.Delete(s.lakeIDs, at, at+1)
		}
		if err := s.persist(); err != nil {
			s.nextLake, s.lakes[l.ID] = now, added
			if !replaced {
				s.lakeIDs = slices.Insert(s.lakeIDs, at, l.ID)
			}
			return err
		}
		return nil
	}
	return &l, undo, nil
}

// nextLakeID advances *counter to the next "lake-NNN" that taken does
// not report in use, so an auto-assigned id never replaces a lake
// registered under an explicit one.
func nextLakeID(counter *int, taken func(id string) bool) string {
	for {
		*counter++
		if id := fmt.Sprintf("lake-%03d", *counter); !taken(id) {
			return id
		}
	}
}

// LakeByID returns the stored lake record for id, or nil.
func (s *JobStore) LakeByID(id string) *StoredLake {
	s.mu.Lock()
	defer s.mu.Unlock()
	if l, ok := s.lakes[id]; ok {
		cp := *l
		return &cp
	}
	return nil
}

// Lakes returns the stored lake records in registration order.
func (s *JobStore) Lakes() []StoredLake {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]StoredLake, 0, len(s.lakeIDs))
	for _, id := range s.lakeIDs {
		out = append(out, *s.lakes[id])
	}
	return out
}

// AddJob records a newly admitted job in ClusterQueued state and
// returns its copy with the assigned "cjob-NNNNNN" id. When the store
// file cannot be written it returns the error and keeps nothing: a job
// a restart would lose is not admitted.
func (s *JobStore) AddJob(tenant, lakeID string, body json.RawMessage, traceparent string, now time.Time) (StoredJob, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextJob++
	j := &StoredJob{
		ID:              fmt.Sprintf("cjob-%06d", s.nextJob),
		Tenant:          tenant,
		Lake:            lakeID,
		Body:            body,
		Traceparent:     traceparent,
		State:           ClusterQueued,
		SubmittedUnixMS: now.UnixMilli(),
	}
	s.jobs[j.ID] = j
	s.jobIDs = append(s.jobIDs, j.ID)
	if err := s.persist(); err != nil {
		delete(s.jobs, j.ID)
		s.jobIDs = s.jobIDs[:len(s.jobIDs)-1]
		s.nextJob--
		return StoredJob{}, err
	}
	return *j, nil
}

// Job returns a copy of the stored job with the given id; ok reports
// whether it exists.
func (s *JobStore) Job(id string) (StoredJob, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return *j, true
	}
	return StoredJob{}, false
}

// Jobs returns copies of every stored job in admission order.
func (s *JobStore) Jobs() []StoredJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]StoredJob, 0, len(s.jobIDs))
	for _, id := range s.jobIDs {
		out = append(out, *s.jobs[id])
	}
	return out
}

// Update applies fn to the stored job with the given id under the lock
// and persists the result; it reports whether the job exists. A failed
// write keeps the update in memory: the next successful write carries
// it.
func (s *JobStore) Update(id string, fn func(*StoredJob)) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return false
	}
	fn(j)
	_ = s.persist() // a failed write is carried by the next successful one
	return true
}

// InFlight counts the tenant's jobs in a non-terminal state (queued or
// dispatched) — the per-tenant quota denominator.
func (s *JobStore) InFlight(tenant string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		if j.Tenant == tenant && (j.State == ClusterQueued || j.State == ClusterDispatched) {
			n++
		}
	}
	return n
}

// Len reports how many jobs the store holds across all states.
func (s *JobStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobIDs)
}

// StateCounts tallies the stored jobs by cluster-level state — the
// queue-depth breakdown the status surface reports.
func (s *JobStore) StateCounts() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string]int{}
	for _, j := range s.jobs {
		out[j.State]++
	}
	return out
}
