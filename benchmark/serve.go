package main

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"autofeat"
)

// pollInterval is how often the client asks for a running job's state.
const pollInterval = 5 * time.Millisecond

// jobWorkers is every served job's worker count. The service runs up to
// GOMAXPROCS jobs at once; with more workers per job, a ranking job that
// overlaps a model job shares its cores, slows to half speed, and the p50
// falls between the two modes.
const jobWorkers = 1

// server is one `autofeat serve` process with the lake preloaded.
type server struct {
	cmd    *exec.Cmd
	url    string
	exited chan error
}

// startServer starts the service on a free local port with its output in
// logPath and returns once /healthz answers. -queue 64 is a deployment
// setting: admission never rejects at the benchmark's fixed rates.
func startServer(bin, lakeDir, logPath string) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, "serve", "-addr", addr, "-queue", "64", "-lake", "bench="+lakeDir)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, url: "http://" + addr, exited: make(chan error, 1)}
	go func() { s.exited <- cmd.Wait() }()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(s.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.exited:
			s.exited <- err
			return nil, fmt.Errorf("autofeat serve exited during start-up (%v); see %s", err, logPath)
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("autofeat serve did not answer /healthz; see %s", logPath)
		}
	}
}

// stop drains the server with SIGTERM and waits for it to exit, killing
// it if the drain takes too long.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.exited:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// client speaks the /v1 API. Its transport holds at most nproc
// connections, as many as the load generator has issuing goroutines.
type client struct {
	http *http.Client
	url  string
}

func newClient(url string) *client {
	n := runtime.NumCPU()
	return &client{url: url, http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}}}
}

// call sends one request and decodes a JSON response into out, returning
// the status. traceparent, when set, joins the server's spans to the
// caller's trace.
func (c *client) call(ctx context.Context, method, path string, body any, traceparent string, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url+path, rd)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 300 {
		return resp.StatusCode, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	if out != nil {
		return resp.StatusCode, json.Unmarshal(b, out)
	}
	return resp.StatusCode, nil
}

// jobDoc is the part of a GET /v1/discoveries/{id} document the
// benchmark reads.
type jobDoc struct {
	ID     string     `json:"id"`
	State  string     `json:"state"`
	Error  string     `json:"error"`
	Result *jobResult `json:"result"`
}

func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "cancelled"
}

// submitBody is the POST /v1/discoveries body of a job of class c.
func (w workload) submitBody(base string, c jobClass) map[string]any {
	b := map[string]any{"lake": "bench", "base": base, "label": "target", "model": c.Model, "seed": c.Seed, "workers": jobWorkers}
	if w.Depth > 0 {
		b["depth"] = w.Depth
	}
	return b
}

// runJob submits one job and polls it to a terminal state.
func (c *client) runJob(ctx context.Context, body map[string]any) (jobDoc, error) {
	var doc jobDoc
	if _, err := c.call(ctx, http.MethodPost, "/v1/discoveries", body, "", &doc); err != nil {
		return doc, err
	}
	for !terminal(doc.State) {
		time.Sleep(pollInterval)
		if _, err := c.call(ctx, http.MethodGet, "/v1/discoveries/"+doc.ID, nil, "", &doc); err != nil {
			return doc, err
		}
	}
	return doc, nil
}

// runServed sets up and measures a served workload. Set-up packs the
// lake, starts the server until /healthz answers (it opens the lake
// before listening) and runs one checked warm-up job per model; it is
// repeated setupReps times, each on a new server process.
func runServed(ctx context.Context, w workload, o options, l lakeRun, runDir string, refs map[jobClass]string, tracePath string) (*result, error) {
	lakeDir, base := l.Dir, l.Base
	var setups []float64
	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		t0 := time.Now()
		if _, err := autofeat.PackLake(lakeDir); err != nil {
			return nil, err
		}
		s, err := startServer(o.Autofeat, lakeDir, filepath.Join(runDir, fmt.Sprintf("serve-%d.log", i)))
		if err != nil {
			return nil, err
		}
		srv = s
		c := newClient(srv.url)
		for _, m := range []string{"", "lightgbm"} {
			cl := jobClass{Model: m, Seed: 1}
			doc, err := c.runJob(ctx, w.submitBody(base, cl))
			if err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			if err := checkJob(doc, refs[cl]); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", cl, err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	tables, err := replacements(lakeDir, base)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.Seed))
	g := &generator{w: w, c: newClient(srv.url), base: base, refs: refs, tables: tables}
	phases, rec := measurePhases(o, func(seconds float64, rec *recorder) *phase {
		return g.run(ctx, g.schedule(rng, seconds), rec)
	})
	rss, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	return finish(w, o, setups, rss, phases, rec, tracePath)
}

// checkJob compares a finished job's document with the reference.
func checkJob(doc jobDoc, ref string) error {
	if doc.State != "done" || doc.Result == nil {
		return fmt.Errorf("job %s ended %s: %s", doc.ID, doc.State, doc.Error)
	}
	if got := doc.Result.String(); got != ref {
		return fmt.Errorf("job %s output %s differs from the reference %s", doc.ID, got, ref)
	}
	return nil
}

// replacement is one table re-upload: a non-base table's own packed
// bytes, so the lake's content, and every job's output, stays the same.
type replacement struct {
	name     string
	columnar string // base64 of the .afc file
}

func replacements(lakeDir, base string) ([]replacement, error) {
	paths, err := filepath.Glob(filepath.Join(lakeDir, "*.afc"))
	if err != nil {
		return nil, err
	}
	var out []replacement
	for _, p := range paths {
		name := filepath.Base(p[:len(p)-len(".afc")])
		if name == base {
			continue
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		out = append(out, replacement{name: name, columnar: base64.StdEncoding.EncodeToString(b)})
	}
	if len(out) == 0 {
		return nil, errors.New("no packed non-base tables to replace")
	}
	return out, nil
}

// event is one scheduled send of an open-loop phase.
type event struct {
	due   time.Duration // offset from the phase start
	class jobClass      // job events
	write *replacement  // table-replace events
}

// schedule draws a phase's sends from rng. The round(rate*seconds) jobs
// get one slot of 1/rate seconds each and leave at a uniformly random
// time within it, and each block of ModelEvery jobs holds exactly one
// model job at a random position. Job seeds are dealt in rounds: each
// run of JobSeeds model jobs, and each of JobSeeds ranking jobs, takes
// every seed 1..JobSeeds once in a random order. Every seed thus offers
// the same load and the same mix of classes with different timing, so
// latency quantiles move with the system, not with how a seed happened
// to bunch its arrivals or which job seeds its model jobs drew. One
// replace of a randomly chosen table leaves every 1/WriteRate seconds.
func (g *generator) schedule(rng *rand.Rand, seconds float64) []event {
	n := int(g.w.Rate*seconds + 0.5)
	if g.w.MaxRequests > 0 && n > g.w.MaxRequests {
		n = g.w.MaxRequests
	}
	dealt := map[string][]int64{}
	deal := func(model string) int64 {
		if len(dealt[model]) == 0 {
			for _, k := range rng.Perm(g.w.JobSeeds) {
				dealt[model] = append(dealt[model], int64(k+1))
			}
		}
		s := dealt[model][0]
		dealt[model] = dealt[model][1:]
		return s
	}
	var evs []event
	modelAt := 0
	for i := 0; i < n; i++ {
		if i%g.w.ModelEvery == 0 {
			modelAt = i + rng.Intn(g.w.ModelEvery)
		}
		var c jobClass
		if i == modelAt {
			c.Model = "lightgbm"
		}
		c.Seed = deal(c.Model)
		due := (float64(i) + rng.Float64()) / g.w.Rate
		evs = append(evs, event{due: time.Duration(due * float64(time.Second)), class: c})
	}
	if g.w.WriteRate > 0 {
		for t := 0.5 / g.w.WriteRate; t < seconds; t += 1 / g.w.WriteRate {
			evs = append(evs, event{due: time.Duration(t * float64(time.Second)), write: &g.tables[rng.Intn(len(g.tables))]})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].due < evs[j].due })
	return evs
}

// generator is the open-loop load generator: sends leave on schedule
// whether or not earlier jobs have finished. A dispatcher hands due
// tasks (submit, poll, replace) to nproc issuing goroutines, so there
// are never more request-issuing goroutines, or connections, than CPUs.
// A due send always goes before a due poll, and with two or more issuers
// one is kept free of polls, so polling does not make the schedule late.
type generator struct {
	w      workload
	c      *client
	base   string
	refs   map[jobClass]string
	tables []replacement

	mu     sync.Mutex
	p      *phase
	rec    *recorder
	start  time.Time
	last   time.Time   // latest completion
	traces [][2]string // traced requests: trace ID and the server span that ends them
}

type taskKind int

const (
	taskSubmit taskKind = iota
	taskPoll
	taskWrite
)

type task struct {
	due   time.Time
	kind  taskKind
	ev    *event
	id    string // job id, once submitted
	trace string
}

// pollHeap orders pending polls by due time.
type pollHeap []*task

func (h pollHeap) Len() int           { return len(h) }
func (h pollHeap) Less(i, j int) bool { return h[i].due.Before(h[j].due) }
func (h pollHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *pollHeap) Push(x any)        { *h = append(*h, x.(*task)) }
func (h *pollHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	*h = old[:len(old)-1]
	return t
}

// run plays one schedule and returns what it observed. Job latency runs
// from the job's scheduled send to the poll that sees it terminal, so a
// stall also counts against the jobs queued behind it.
func (g *generator) run(ctx context.Context, evs []event, rec *recorder) *phase {
	g.p, g.rec, g.traces = &phase{attempted: len(evs)}, rec, nil
	g.start = time.Now()
	g.last = g.start
	limit := 60 * time.Second
	if len(evs) > 0 {
		limit += evs[len(evs)-1].due
	}
	ctx, cancel := context.WithTimeout(ctx, limit)
	defer cancel()

	sends := make([]*task, len(evs))
	for i := range evs {
		kind := taskSubmit
		if evs[i].write != nil {
			kind = taskWrite
		}
		sends[i] = &task{due: g.start.Add(evs[i].due), kind: kind, ev: &evs[i]}
	}
	polls := &pollHeap{}

	issuers := runtime.NumCPU()
	pollSlots := max(issuers-1, 1)
	type done struct {
		polled bool
		next   *task // the follow-up poll, or nil
	}
	work := make(chan *task)
	// back carries each task's outcome. One slot per issuer lets every
	// issuer hand in its last outcome after the dispatcher has stopped on
	// a timeout.
	back := make(chan done, issuers)
	var wg sync.WaitGroup
	for i := 0; i < issuers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range work {
				polled := t.kind == taskPoll
				back <- done{polled, g.do(ctx, t)}
			}
		}()
	}
	out, polling := 0, 0
	timer := time.NewTimer(time.Hour)
	timer.Stop()
loop:
	for len(sends) > 0 || polls.Len() > 0 || out > 0 {
		// Offer the due send, else the due poll; wake for whichever
		// comes due first otherwise, and for the next send while a poll
		// is on offer.
		now := time.Now()
		var next *task
		var wake time.Time
		if len(sends) > 0 {
			if !sends[0].due.After(now) {
				next = sends[0]
			} else {
				wake = sends[0].due
			}
		}
		if next == nil && polls.Len() > 0 && polling < pollSlots {
			if p := (*polls)[0]; !p.due.After(now) {
				next = p
			} else if wake.IsZero() || p.due.Before(wake) {
				wake = p.due
			}
		}
		// The issuer that takes next turns a submit into a poll, so read
		// what the dispatcher needs before handing it over.
		var send chan *task
		var isPoll bool
		var due time.Time
		if next != nil {
			send, isPoll, due = work, next.kind == taskPoll, next.due
		}
		var wait <-chan time.Time
		if !wake.IsZero() {
			timer.Reset(time.Until(wake))
			wait = timer.C
		}
		select {
		case send <- next:
			out++
			if isPoll {
				heap.Pop(polls)
				polling++
			} else {
				sends = sends[1:]
				g.mu.Lock()
				g.p.lags = append(g.p.lags, time.Since(due).Seconds())
				g.mu.Unlock()
			}
		case <-wait:
		case d := <-back:
			out--
			if d.polled {
				polling--
			}
			if d.next != nil {
				heap.Push(polls, d.next)
			}
		case <-ctx.Done():
			break loop
		}
		if wait != nil && !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}
	close(work)
	wg.Wait()
	// Reading traces after the schedule keeps the fetches from delaying
	// sends; the server retains far more traces than one phase makes.
	for _, tr := range g.traces {
		g.fetchTrace(ctx, tr[0], tr[1])
	}

	// After a timeout, every request still scheduled, waiting to be
	// polled or in flight never finished.
	p := g.p
	p.failed += len(sends) + polls.Len() + out
	p.elapsed = g.last.Sub(g.start).Seconds()
	return p
}

// do issues one task and returns its follow-up.
func (g *generator) do(ctx context.Context, t *task) *task {
	switch t.kind {
	case taskSubmit:
		t.trace = g.rec.newTrace()
		sp := g.rec.start("http.submit", t.trace)
		var doc jobDoc
		status, err := g.c.call(ctx, http.MethodPost, "/v1/discoveries", g.w.submitBody(g.base, t.ev.class), sp.traceparent(), &doc)
		sp.end()
		if err != nil {
			g.fail(err, status == http.StatusTooManyRequests)
			return nil
		}
		t.id, t.kind, t.due = doc.ID, taskPoll, time.Now().Add(pollInterval)
		return t
	case taskPoll:
		sp := g.rec.start("http.poll", t.trace)
		var doc jobDoc
		_, err := g.c.call(ctx, http.MethodGet, "/v1/discoveries/"+t.id, nil, sp.traceparent(), &doc)
		sp.end()
		if err != nil {
			g.fail(err, false)
			return nil
		}
		if !terminal(doc.State) {
			t.due = time.Now().Add(pollInterval)
			return t
		}
		done := time.Now()
		if err := checkJob(doc, g.refs[t.ev.class]); err != nil {
			g.fail(err, false)
		} else {
			g.mu.Lock()
			g.p.latencies = append(g.p.latencies, done.Sub(g.start.Add(t.ev.due)).Seconds())
			g.p.count(reqStats{doc.Result.Explored, doc.Result.Paths, doc.Result.GraphEdges, doc.Result.CacheHitsDelta, doc.Result.CacheMissesDelta})
			g.complete(done)
			g.mu.Unlock()
		}
		g.traced(t.trace, "serve.job")
		return nil
	default:
		t.trace = g.rec.newTrace()
		sp := g.rec.start("http.upsert", t.trace)
		body := map[string]any{"name": t.ev.write.name, "columnar": t.ev.write.columnar, "replace": true}
		_, err := g.c.call(ctx, http.MethodPost, "/v1/lakes/bench/tables", body, sp.traceparent(), nil)
		sp.end()
		if err != nil {
			g.fail(err, false)
			return nil
		}
		g.mu.Lock()
		g.complete(time.Now())
		g.mu.Unlock()
		g.traced(t.trace, "serve.http")
		return nil
	}
}

// complete notes a finished request; call with g.mu held.
func (g *generator) complete(at time.Time) {
	if at.After(g.last) {
		g.last = at
	}
}

func (g *generator) fail(err error, rejected bool) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", g.w.Name, err)
	g.mu.Lock()
	defer g.mu.Unlock()
	g.p.failed++
	if rejected {
		g.p.rejected++
	}
}

// traced notes a finished traced request whose server spans end with
// the span named want.
func (g *generator) traced(trace, want string) {
	if g.rec == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.traces = append(g.traces, [2]string{trace, want})
}

// fetchTrace reads the server's spans of a traced request into the
// recorder. A job's own span ends just after its document turns
// terminal, so the fetch retries briefly until the span named want is
// there.
func (g *generator) fetchTrace(ctx context.Context, trace, want string) {
	var doc struct {
		Roots []traceNode `json:"roots"`
	}
	for try := 0; try < 50; try++ {
		doc.Roots = nil
		if _, err := g.c.call(ctx, http.MethodGet, "/v1/traces/"+trace, nil, "", &doc); err == nil && hasSpan(doc.Roots, want) {
			break
		}
		time.Sleep(pollInterval)
	}
	g.rec.addTree(doc.Roots)
}

func hasSpan(ns []traceNode, name string) bool {
	for _, n := range ns {
		if n.Name == name || hasSpan(n.Children, name) {
			return true
		}
	}
	return false
}
