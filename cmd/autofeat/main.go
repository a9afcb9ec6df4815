// Command autofeat runs transitive feature discovery over a directory of
// CSV tables: it builds the Dataset Relation Graph (from a constraints
// file when present, otherwise with the built-in schema matcher), ranks
// join paths, trains the chosen model on the top-k paths and reports the
// winner.
//
// Usage:
//
//	autofeat -dir lake/credit -base credit -label target
//	autofeat -dir lake/credit -base credit -label target -model xgboost -tau 0.7 -kappa 10
//	autofeat -dir lake/credit -base credit -label target -dot   # print the DRG and exit
//	autofeat -dir lake/credit -base credit -label target -trace-out t.json -metrics-out m.json
//	autofeat -dir lake/credit -base credit -label target -serve localhost:6060 -manifest-out run_manifest.json
//	autofeat explain path-001 -manifest run_manifest.json
//	autofeat pack lake/credit                          # convert a CSV lake to columnar in place
//	autofeat serve -addr localhost:8080 -jobs 4        # long-lived discovery service
//	autofeat cluster status -coordinator http://localhost:8080
//	autofeat cluster trace 4bf92f3577b34da6a3ce929d0e0e4736 -coordinator http://localhost:8080
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"autofeat"
	"autofeat/internal/serve"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "explain" {
		if err := runExplain(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "autofeat explain: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := runServe(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "autofeat serve: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "cluster" {
		if err := runCluster(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "autofeat cluster: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "pack" {
		if err := runPack(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "autofeat pack: %v\n", err)
			os.Exit(1)
		}
		return
	}
	var (
		dir         = flag.String("dir", "", "directory of CSV tables (required)")
		base        = flag.String("base", "", "base table name (required)")
		label       = flag.String("label", "target", "label column in the base table")
		model       = flag.String("model", "lightgbm", "model: lightgbm|xgboost|randomforest|extratrees|knn|lr_l1")
		tau         = flag.Float64("tau", 0.65, "data-quality pruning threshold")
		kappa       = flag.Int("kappa", 15, "max features selected per table")
		topK        = flag.Int("topk", 4, "ranked paths to train models on")
		depth       = flag.Int("depth", 3, "max join path length")
		threshold   = flag.Float64("threshold", 0.55, "matcher threshold when no constraints file exists")
		seed        = flag.Int64("seed", 1, "random seed")
		workers     = flag.Int("workers", 0, "parallel workers for join evaluation and top-k model training (0 = GOMAXPROCS, 1 = sequential)")
		timeout     = flag.Duration("timeout", 0, "wall-clock budget for the run (0 = none); on expiry the best partial ranking is returned")
		budgetJ     = flag.Int("budget-joins", 0, "max joins to evaluate (0 = the default, 3000); exhaustion yields a partial ranking")
		dot         = flag.Bool("dot", false, "print the DRG in Graphviz DOT format and exit")
		paths       = flag.Int("paths", 5, "ranked paths to print")
		beam        = flag.Int("beam", 0, "beam width (0 = exhaustive BFS)")
		sketched    = flag.Bool("sketched", false, "use MinHash-sketched discovery (large lakes)")
		autotune    = flag.Bool("autotune", false, "grid-search tau and kappa before the final run")
		traceOut    = flag.String("trace-out", "", "write the span trace as JSON to this file")
		metricsOut  = flag.String("metrics-out", "", "write counters/histograms/pruning breakdown as JSON to this file")
		manifestOut = flag.String("manifest-out", "", "write the run provenance manifest (run_manifest.json) to this file")
		serveAddr   = flag.String("serve", "", "serve live introspection (/metrics, /healthz, /runs/{id}, /debug/pprof/) on this address")
		logLevel    = flag.String("log-level", "", "structured log level: debug|info|warn|error (empty = off)")
		logFormat   = flag.String("log-format", "text", "structured log format: text|json")
	)
	flag.Parse()
	if *dir == "" || *base == "" {
		fmt.Fprintln(os.Stderr, "autofeat: -dir and -base are required")
		flag.Usage()
		os.Exit(2)
	}
	opts := runOpts{
		dir: *dir, base: *base, label: *label, model: *model,
		tau: *tau, kappa: *kappa, topK: *topK, depth: *depth,
		threshold: *threshold, seed: *seed, workers: *workers, dot: *dot, paths: *paths,
		beam: *beam, sketched: *sketched, autotune: *autotune,
		traceOut: *traceOut, metricsOut: *metricsOut, manifestOut: *manifestOut,
		serveAddr: *serveAddr, logLevel: *logLevel, logFormat: *logFormat,
		timeout: *timeout, budgetJoins: *budgetJ,
	}
	if err := run(opts); err != nil {
		fmt.Fprintf(os.Stderr, "autofeat: %v\n", err)
		os.Exit(1)
	}
}

// runExplain implements the `autofeat explain <path-id>` subcommand: it
// loads a provenance manifest and pretty-prints one path's lineage.
func runExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	manifest := fs.String("manifest", "run_manifest.json", "provenance manifest to read")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: autofeat explain <path-id> [-manifest run_manifest.json]")
		fmt.Fprintln(os.Stderr, "  <path-id> is \"path-NNN\", a bare rank number, or \"base\"")
		fs.PrintDefaults()
	}
	// Accept flags on either side of the path-id (`explain path-001
	// -manifest f.json` reads naturally; flag.Parse stops at the first
	// positional, so re-parse whatever followed it).
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) >= 2 {
		if err := fs.Parse(rest[1:]); err != nil {
			return err
		}
		rest = append(rest[:1], fs.Args()...)
	}
	if len(rest) != 1 {
		fs.Usage()
		os.Exit(2)
	}
	m, err := autofeat.ReadManifestFile(*manifest)
	if err != nil {
		return err
	}
	return m.Explain(os.Stdout, rest[0])
}

// serveOptions holds the `autofeat serve` flags.
type serveOptions struct {
	addr, logLevel, logFormat        string
	jobs, queue                      int
	jobTimeout, drainWait, hbTimeout time.Duration
	pprof                            bool
	traceStore, flightSize           int
	role, nodeID, advertise          string
	coordinator, store               string
	tenantQuota, storeRetain         int
	lakes                            multiFlag
}

// roleFlags names, for each flag only some roles read, the roles that
// read it ("" is a single node); every other flag is read by all three.
var roleFlags = map[string][]string{
	"jobs":              {"", "worker"},
	"queue":             {"", "worker"},
	"job-timeout":       {"", "worker"},
	"node-id":           {"worker"},
	"advertise":         {"worker"},
	"coordinator":       {"worker"},
	"store":             {"coordinator"},
	"heartbeat-timeout": {"coordinator"},
	"tenant-quota":      {"coordinator"},
	"store-retain":      {"coordinator"},
}

// parseServe parses and checks the `autofeat serve` flags. It refuses
// every flag that was set but is not read by the chosen role, a worker
// without -coordinator (workers join by heartbeat alone), and a
// -heartbeat-timeout under two heartbeat periods, which would declare
// live workers dead between their beats. It opens and listens on
// nothing.
func parseServe(args []string) (*serveOptions, error) {
	o := &serveOptions{}
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	fs.StringVar(&o.addr, "addr", "localhost:8080", "listen address")
	fs.IntVar(&o.jobs, "jobs", 0, "single node and worker: max concurrently running discovery jobs (0 = GOMAXPROCS)")
	fs.IntVar(&o.queue, "queue", 0, "single node and worker: max queued jobs before submissions get 429 (0 = 2x jobs)")
	fs.DurationVar(&o.jobTimeout, "job-timeout", 0, "single node and worker: default per-job wall-clock budget (0 = unbounded)")
	fs.DurationVar(&o.drainWait, "drain-timeout", 30*time.Second, "max wait for in-flight jobs on shutdown")
	fs.BoolVar(&o.pprof, "pprof", true, "mount /debug/pprof/ handlers")
	fs.StringVar(&o.logLevel, "log-level", "info", "structured log level: debug|info|warn|error (empty = off)")
	fs.StringVar(&o.logFormat, "log-format", "text", "structured log format: text|json")
	fs.IntVar(&o.traceStore, "trace-store", 256, "traces retained for GET /v1/traces (0 = default 256, -1 = disable tracing endpoints)")
	fs.IntVar(&o.flightSize, "flight", 256, "recent spans kept in the /debug/flight ring (0 = default 256, -1 = disable)")
	fs.StringVar(&o.role, "role", "", "cluster role: coordinator|worker (empty = single-node)")
	fs.StringVar(&o.nodeID, "node-id", "", "worker: stable worker identity (default: the listen address)")
	fs.StringVar(&o.advertise, "advertise", "", "worker: base URL other nodes dial to reach this worker (default http://<addr>)")
	fs.StringVar(&o.coordinator, "coordinator", "", "worker (required): coordinator base URL to heartbeat to every 2s")
	fs.StringVar(&o.store, "store", "", "coordinator: job-store JSON file, the store's one durable copy (empty = in-memory)")
	fs.DurationVar(&o.hbTimeout, "heartbeat-timeout", 10*time.Second, "coordinator: silence after which a worker is dead and its jobs reroute (at least two 2s heartbeat periods)")
	fs.IntVar(&o.tenantQuota, "tenant-quota", 0, "coordinator: max in-flight jobs per tenant (X-Tenant header; 0 = unlimited)")
	fs.IntVar(&o.storeRetain, "store-retain", 0, "coordinator: max terminal job documents retained in the store before FIFO eviction (0 = unlimited)")
	fs.Var(&o.lakes, "lake", "pre-register a lake as id=dir (repeatable)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	role := "a single node (no -role)"
	switch o.role {
	case "":
	case "worker", "coordinator":
		role = "-role " + o.role
	default:
		return nil, fmt.Errorf("bad -role %q (want coordinator or worker)", o.role)
	}
	var unread []string
	fs.Visit(func(f *flag.Flag) {
		if roles, ok := roleFlags[f.Name]; ok && !slices.Contains(roles, o.role) {
			unread = append(unread, "-"+f.Name)
		}
	})
	if len(unread) > 0 {
		verb := "is"
		if len(unread) > 1 {
			verb = "are"
		}
		return nil, fmt.Errorf("%s %s not read by %s", strings.Join(unread, ", "), verb, role)
	}
	if o.role == "worker" && o.coordinator == "" {
		return nil, errors.New("-role worker needs -coordinator: a worker joins its coordinator by heartbeat")
	}
	if least := 2 * serve.HeartbeatPeriod; o.hbTimeout < least {
		return nil, fmt.Errorf("-heartbeat-timeout %s is shorter than two heartbeat periods (%s): live workers would be declared dead between beats", o.hbTimeout, least)
	}
	return o, nil
}

// runServe implements the `autofeat serve` subcommand: the long-lived
// discovery service. Lakes are registered over HTTP (POST /v1/lakes) or
// pre-registered with repeated -lake flags; discoveries are submitted
// with POST /v1/discoveries and observed via GET /v1/discoveries/{id},
// /runs/{id} and /metrics, all on one listener. SIGTERM/SIGINT drains:
// new submissions are rejected while in-flight jobs run to completion.
//
// With -role the same binary becomes one node of a cluster:
// -role=coordinator routes /v1 requests to workers by rendezvous
// hashing and keeps the job store; -role=worker runs the ordinary
// single-node service plus a cluster agent that heartbeats to
// -coordinator.
func runServe(args []string) error {
	o, err := parseServe(args)
	if err != nil {
		return err
	}
	cfg := serve.Config{
		Workers:        o.jobs,
		QueueDepth:     o.queue,
		DefaultTimeout: o.jobTimeout,
		Collector:      autofeat.NewTelemetry(),
	}
	if o.logLevel != "" {
		level, on, err := autofeat.ParseLogLevel(o.logLevel)
		if err != nil {
			return err
		}
		if on {
			cfg.Logger = autofeat.NewLogger(os.Stderr, level, o.logFormat)
		}
	}
	// The trace store and flight recorder behind /v1/traces and
	// /debug/flight are the service's only, bounded, span retention.
	icfg := autofeat.IntrospectionConfig{
		Addr:        o.addr,
		Collector:   cfg.Collector,
		EnablePprof: o.pprof,
	}
	// The coordinator mounts its own federated /v1/traces routes, so its
	// trace store hangs off the cluster config instead of the obsrv server
	// (mounting both would double-register the patterns).
	var traces *autofeat.TraceStore
	if o.traceStore >= 0 {
		traces = autofeat.NewTraceStore(o.traceStore, 0)
		cfg.Collector.ObserveSpans(traces)
		if o.role != "coordinator" {
			icfg.Traces = traces
		}
	}
	if o.flightSize >= 0 {
		icfg.Flight = autofeat.NewFlightRecorder(o.flightSize)
		cfg.Collector.ObserveSpans(icfg.Flight)
	}
	srv := autofeat.NewIntrospectionServer(icfg)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if o.role == "coordinator" {
		store, err := serve.NewJobStore(o.store)
		if err != nil {
			return err
		}
		coord := serve.NewCoordinator(serve.ClusterConfig{
			HeartbeatTimeout: o.hbTimeout,
			TenantQuota:      o.tenantQuota,
			StoreRetention:   o.storeRetain,
			Collector:        cfg.Collector,
			Logger:           cfg.Logger,
			Traces:           traces,
		}, store)
		coord.Mount(srv)
		// Pre-register lakes in the store only; workers open them lazily
		// on first touch.
		for _, spec := range o.lakes {
			id, dir, ok := strings.Cut(spec, "=")
			if !ok {
				return fmt.Errorf("bad -lake %q (want id=dir)", spec)
			}
			l, err := store.AddLake(serve.StoredLake{ID: id, Dir: dir})
			if err != nil {
				return err
			}
			fmt.Printf("lake %q recorded from %s\n", l.ID, dir)
		}
		go coord.Run(ctx)
		errCh := make(chan error, 1)
		go func() { errCh <- srv.ListenAndServe() }()
		fmt.Printf("cluster coordinator listening on http://%s/ (v1/lakes, v1/discoveries, v1/traces, v1/cluster/{status,metrics,events}, cluster/v1/workers, metrics, healthz)\n", o.addr)
		select {
		case err := <-errCh:
			if err != nil && !errors.Is(err, http.ErrServerClosed) {
				return err
			}
			return nil
		case <-ctx.Done():
		}
		fmt.Fprintln(os.Stderr, "autofeat serve: signal received, draining coordinator")
		coord.Drain()
		drainCtx, cancel := context.WithTimeout(context.Background(), o.drainWait)
		defer cancel()
		return srv.Shutdown(drainCtx)
	}

	svc := serve.New(cfg)
	svc.Mount(srv)
	if o.role == "worker" {
		id := o.nodeID
		if id == "" {
			id = o.addr
		}
		adv := o.advertise
		if adv == "" {
			adv = "http://" + o.addr
		}
		agent := serve.NewAgent(serve.AgentConfig{
			ID:          id,
			Addr:        adv,
			Coordinator: o.coordinator,
			Collector:   cfg.Collector,
			Logger:      cfg.Logger,
			Traces:      icfg.Traces,
		}, svc)
		agent.Mount(srv)
		go agent.Run(ctx)
	}
	for _, spec := range o.lakes {
		id, dir, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("bad -lake %q (want id=dir)", spec)
		}
		l, err := autofeat.OpenLake(dir)
		if err != nil {
			return err
		}
		svc.AddLake(id, l)
		fmt.Printf("lake %q registered from %s (%d tables)\n", id, dir, len(l.Tables()))
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Printf("discovery service listening on http://%s/ (v1/lakes, v1/discoveries, v1/traces, runs, metrics, healthz)\n", o.addr)

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "autofeat serve: signal received, draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainWait)
	defer cancel()
	if err := svc.Drain(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "autofeat serve: %v\n", err)
	}
	return srv.Shutdown(drainCtx)
}

// multiFlag collects repeated string flag values.
type multiFlag []string

// String renders the collected values for -help output.
func (m *multiFlag) String() string { return strings.Join(*m, ",") }

// Set appends one flag occurrence.
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// runOpts bundles the CLI flags.
type runOpts struct {
	dir, base, label, model string
	tau                     float64
	kappa, topK, depth      int
	threshold               float64
	seed                    int64
	workers                 int
	dot                     bool
	paths                   int
	beam                    int
	sketched                bool
	autotune                bool
	traceOut, metricsOut    string
	manifestOut             string
	serveAddr               string
	logLevel, logFormat     string
	timeout                 time.Duration
	budgetJoins             int
}

// config resolves the discovery flags over DefaultConfig. A zero
// -budget-joins keeps the default join budget.
func (o runOpts) config() autofeat.Config {
	cfg := autofeat.DefaultConfig()
	cfg.Tau = o.tau
	cfg.Kappa = o.kappa
	cfg.TopK = o.topK
	cfg.MaxDepth = o.depth
	cfg.Seed = o.seed
	cfg.Workers = o.workers
	cfg.BeamWidth = o.beam
	cfg.Timeout = o.timeout
	if o.budgetJoins > 0 {
		cfg.MaxEvalJoins = o.budgetJoins
	}
	return cfg
}

func run(o runOpts) error {
	factory, err := autofeat.ModelByName(o.model)
	if err != nil {
		return err
	}
	opts, setting, err := lakeOptions(o.dir, o.threshold, o.sketched)
	if err != nil {
		return err
	}
	l, err := autofeat.OpenLake(o.dir, opts...)
	if err != nil {
		return err
	}
	g, err := l.DRG()
	if err != nil {
		return err
	}
	fmt.Printf("DRG (%s setting): %d tables, %d edges\n", setting, g.NumNodes(), g.NumEdges())
	if ix := l.IndexStats(); ix.Built {
		fmt.Printf("join index: %d columns in %d LSH buckets (%d bands x %d rows)\n",
			ix.Columns, ix.Slot+ix.Anchor+ix.Name, ix.Bands, ix.Rows)
	}
	if o.dot {
		fmt.Print(g.DOT())
		return nil
	}

	cfg := o.config()
	base, label, model, nPaths := o.base, o.label, o.model, o.paths

	if o.traceOut != "" || o.metricsOut != "" || o.serveAddr != "" {
		cfg.Telemetry = autofeat.NewTelemetry()
	}
	var spans autofeat.SpanLog
	if o.traceOut != "" {
		cfg.Telemetry.ObserveSpans(&spans)
	}
	if o.logLevel != "" {
		level, on, err := autofeat.ParseLogLevel(o.logLevel)
		if err != nil {
			return err
		}
		if on {
			cfg.Logger = autofeat.NewLogger(os.Stderr, level, o.logFormat)
		}
	}
	// The introspection server starts before any heavy work (including the
	// autotune grid search) so /metrics and /debug/pprof/ are reachable for
	// the whole process lifetime; /runs/{id} tracks the final run.
	if o.serveAddr != "" {
		cfg.Progress = autofeat.NewRunProgress(base)
		srv := autofeat.NewIntrospectionServer(autofeat.IntrospectionConfig{
			Addr:        o.serveAddr,
			Collector:   cfg.Telemetry,
			EnablePprof: true,
		})
		srv.Register(cfg.Progress)
		go func() {
			if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "autofeat: introspection server: %v\n", err)
			}
		}()
		defer srv.Close()
		fmt.Printf("introspection listening on http://%s/ (metrics, healthz, runs/%s, debug/pprof)\n", o.serveAddr, base)
	}

	if o.autotune {
		out, err := l.AutoTune(base, label, cfg, factory, nil, nil)
		if err != nil {
			return err
		}
		fmt.Printf("autotune: best tau=%.2f kappa=%d (accuracy %.4f over %d configs in %v)\n",
			out.Best.Tau, out.Best.Kappa, out.Best.Accuracy, len(out.Tried), out.Elapsed.Round(time.Millisecond))
		cfg.Tau = out.Best.Tau
		cfg.Kappa = out.Best.Kappa
	}

	out, err := l.Discover(context.Background(), autofeat.Request{
		Base: base, Label: label, Model: factory.Name, Config: &cfg,
	})
	if err != nil {
		return err
	}
	res := out.Augment

	if res.Partial {
		fmt.Printf("\nPARTIAL RESULT (%s): the search stopped early; the ranking covers only what was reached\n", res.PartialReason)
	}
	pr := res.Ranking.Prune
	fmt.Printf("\nranked join paths (top %d of %d, explored %d, pruned %d):\n",
		nPaths, len(res.Ranking.Paths), res.Ranking.PathsExplored, pr.Discarded())
	fmt.Printf("pruning: similarity %d, join_failed %d, quality_below_tau %d, beam_evicted %d, budget_exhausted %d, cancelled %d\n",
		pr.Similarity, pr.JoinFailed, pr.QualityBelowTau, pr.BeamEvicted, pr.BudgetExhausted, pr.Cancelled)
	for i, p := range res.Ranking.TopK(nPaths) {
		fmt.Printf("  %d. %s\n", i+1, p)
	}
	fmt.Printf("\nmodel evaluations (%s):\n", model)
	for _, pe := range res.Evaluated {
		kind := "path"
		if len(pe.Path.Edges) == 0 {
			kind = "base"
		}
		fmt.Printf("  %-4s acc=%.4f auc=%.4f  %s\n", kind, pe.Eval.Accuracy, pe.Eval.AUC, pe.Path)
	}
	fmt.Printf("\nbest: %s\n", res.Best.Path)
	fmt.Printf("accuracy %.4f (AUC %.4f) with %d features\n",
		res.Best.Eval.Accuracy, res.Best.Eval.AUC, len(res.Features))
	fmt.Printf("feature-selection time %v, total time %v\n", res.SelectionTime, res.TotalTime)

	if cfg.Telemetry != nil {
		if o.traceOut != "" {
			if err := autofeat.WriteTraceFile(o.traceOut, &spans); err != nil {
				return err
			}
			fmt.Printf("trace written to %s (%d spans)\n", o.traceOut, len(spans.Spans()))
		}
		if o.metricsOut != "" {
			if err := autofeat.WriteMetricsFile(o.metricsOut, cfg.Telemetry.Snapshot()); err != nil {
				return err
			}
			fmt.Printf("metrics written to %s\n", o.metricsOut)
		}
	}
	if o.manifestOut != "" {
		m := out.Manifest
		if err := autofeat.WriteManifestFile(o.manifestOut, m); err != nil {
			return err
		}
		fmt.Printf("manifest written to %s (%d paths); inspect with: autofeat explain path-001 -manifest %s\n",
			o.manifestOut, len(m.Paths), o.manifestOut)
	}
	return nil
}

// lakeOptions prefers a constraints.txt (benchmark setting); without one
// it falls back to schema matching (data lake setting), exact or
// sketched.
func lakeOptions(dir string, threshold float64, sketched bool) ([]autofeat.LakeOption, string, error) {
	kfks, err := readConstraints(filepath.Join(dir, "constraints.txt"))
	switch {
	case err == nil && len(kfks) > 0:
		return []autofeat.LakeOption{autofeat.WithKFKs(kfks)}, "benchmark", nil
	case err != nil && !os.IsNotExist(err):
		return nil, "", err
	case sketched:
		return []autofeat.LakeOption{
			autofeat.WithMatcher(autofeat.MatcherSketched),
			autofeat.WithThreshold(threshold),
		}, "lake (sketched)", nil
	default:
		return []autofeat.LakeOption{autofeat.WithThreshold(threshold)}, "lake", nil
	}
}

// readConstraints parses lines of the form parent.col=child.col.
func readConstraints(path string) ([]autofeat.KFK, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []autofeat.KFK
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.SplitN(line, "=", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad constraint line %q", line)
		}
		p := strings.SplitN(parts[0], ".", 2)
		c := strings.SplitN(parts[1], ".", 2)
		if len(p) != 2 || len(c) != 2 {
			return nil, fmt.Errorf("bad constraint line %q", line)
		}
		out = append(out, autofeat.KFK{
			ParentTable: p[0], ParentCol: p[1],
			ChildTable: c[0], ChildCol: c[1],
		})
	}
	return out, sc.Err()
}
