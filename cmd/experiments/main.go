// Command experiments regenerates the paper's evaluation: every table and
// figure (Table I, Table II, Figures 1 and 3–9) plus the design-choice
// ablations. Results print as aligned text tables; EXPERIMENTS.md records
// the paper-vs-measured comparison.
//
// Usage:
//
//	experiments                      # everything at quick scale
//	experiments -scale full          # full Table II scale (slow)
//	experiments -only figure4,figure6 -v
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"autofeat/internal/bench"
	"autofeat/internal/datagen"
	"autofeat/internal/obsrv"
	"autofeat/internal/telemetry"
)

func main() {
	var (
		scale     = flag.String("scale", "quick", "quick | full")
		only      = flag.String("only", "all", "comma-separated experiment ids (table1,table2,figure1,figure3a,figure3b,figure4..figure9,ablations) or 'all'")
		seed      = flag.Int64("seed", 7, "random seed")
		workers   = flag.Int("workers", 0, "parallel workers per discovery, for join evaluation and top-k model training (0 = GOMAXPROCS, 1 = sequential)")
		verbose   = flag.Bool("v", false, "print per-run progress")
		telOut    = flag.String("telemetry-out", "", "write accumulated discovery telemetry as JSON to this file")
		timeout   = flag.Duration("timeout", 0, "wall-clock budget per discovery (0 = none); expiry truncates rankings (partial)")
		budgetJ   = flag.Int("budget-joins", 0, "max joins evaluated per discovery (0 = the default, 3000)")
		serveAddr = flag.String("serve", "", "serve live introspection (/metrics, /healthz, /runs/sweep, /debug/pprof/) on this address")
		logLevel  = flag.String("log-level", "", "structured log level: debug|info|warn|error (empty = off)")
		logFormat = flag.String("log-format", "text", "structured log format: text|json")
	)
	flag.Parse()

	var specs []datagen.Spec
	switch *scale {
	case "quick":
		specs = datagen.QuickSpecs()
	case "full":
		specs = datagen.PaperSpecs()
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	runner := bench.NewRunner(specs, *seed)
	runner.Verbose = *verbose
	runner.Workers = *workers
	runner.Timeout = *timeout
	runner.MaxEvalJoins = *budgetJ
	if *telOut != "" || *serveAddr != "" {
		runner.Telemetry = telemetry.New()
	}
	if *logLevel != "" {
		level, on, err := telemetry.ParseLogLevel(*logLevel)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(2)
		}
		if on {
			runner.Logger = telemetry.NewLogger(os.Stderr, level, *logFormat)
		}
	}
	if *serveAddr != "" {
		// The sweep reuses one progress tracker across its discoveries: the
		// /runs/sweep endpoint always shows the run currently in flight.
		runner.Progress = obsrv.NewRunProgress("sweep")
		srv := obsrv.NewServer(obsrv.Config{
			Addr:        *serveAddr,
			Collector:   runner.Telemetry,
			EnablePprof: true,
		})
		srv.Register(runner.Progress)
		go func() {
			if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "experiments: introspection server: %v\n", err)
			}
		}()
		defer srv.Close()
		fmt.Printf("introspection listening on http://%s/ (metrics, healthz, runs/sweep, debug/pprof)\n", *serveAddr)
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		want[strings.TrimSpace(id)] = true
	}
	all := want["all"]
	run := func(id string, fn func() error) {
		if !all && !want[id] {
			return
		}
		start := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("[%s done in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}

	show := func(rep *bench.Report, err error) error {
		if err != nil {
			return err
		}
		fmt.Println(rep)
		return nil
	}

	run("table1", func() error { return show(bench.TableI(), nil) })
	run("table2", func() error { return show(runner.TableII()) })
	run("figure3a", func() error { return show(runner.Figure3a()) })
	run("figure3b", func() error { return show(runner.Figure3b()) })
	run("figure4", func() error { return show(runner.Figure4()) })
	run("figure5", func() error { return show(runner.Figure5()) })
	run("figure6", func() error { return show(runner.Figure6()) })
	run("figure7", func() error { return show(runner.Figure7()) })
	run("figure8", func() error {
		reps, err := runner.Figure8()
		if err != nil {
			return err
		}
		for _, rep := range reps {
			fmt.Println(rep)
		}
		return nil
	})
	run("figure9", func() error { return show(runner.Figure9()) })
	run("figure1", func() error { return show(runner.Figure1()) })
	run("ablations", func() error {
		for _, fn := range []func() (*bench.Report, error){
			runner.AblationTraversal,
			runner.AblationCardinality,
			runner.AblationJoinType,
			runner.AblationSimPrune,
			runner.AblationBins,
			runner.AblationStreaming,
		} {
			if err := show(fn()); err != nil {
				return err
			}
		}
		return nil
	})

	if *telOut != "" {
		if err := runner.WriteTelemetry(*telOut); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: telemetry: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("telemetry written to %s\n", *telOut)
	}
}
