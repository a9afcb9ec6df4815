// Autotune: the paper's future-work item "dynamic hyper-parameter
// tuning" in action. Grid-searches τ (data-quality threshold) and κ
// (features per table) on a generated lake, shows the accuracy/time
// trade-off per configuration, and runs AutoFeat with the winner —
// including beam-search pruning, the other future-work lever for large
// lakes.
//
//	go run ./examples/autotune
package main

import (
	"context"
	"fmt"
	"log"

	"autofeat"
	"autofeat/internal/datagen"
)

func main() {
	spec, _ := datagen.SpecByName("steel")
	ds, err := datagen.Generate(spec)
	must(err)
	l := autofeat.NewLake(ds.Tables, autofeat.WithKFKs(ds.KFKs))
	model, err := autofeat.ModelByName("lightgbm")
	must(err)

	out, err := l.AutoTune(ds.Base.Name(), ds.Label, autofeat.DefaultConfig(),
		model,
		[]float64{0.5, 0.65, 0.9},
		[]int{5, 15})
	must(err)

	fmt.Printf("%6s %6s %10s %8s %12s\n", "tau", "kappa", "accuracy", "paths", "selection")
	for _, tr := range out.Tried {
		fmt.Printf("%6.2f %6d %10.4f %8d %12v\n", tr.Tau, tr.Kappa, tr.Accuracy, tr.Paths, tr.SelectionTime)
	}
	fmt.Printf("\nwinner: tau=%.2f kappa=%d (accuracy %.4f), tuned in %v\n",
		out.Best.Tau, out.Best.Kappa, out.Best.Accuracy, out.Elapsed)

	// Final run with the tuned configuration plus beam pruning, reusing
	// the Lake's memoised DRG and warm join-index cache.
	cfg := autofeat.DefaultConfig()
	cfg.Tau = out.Best.Tau
	cfg.Kappa = out.Best.Kappa
	cfg.BeamWidth = 4
	final, err := l.Discover(context.Background(), autofeat.Request{
		Base:   ds.Base.Name(),
		Label:  ds.Label,
		Model:  "lightgbm",
		Config: &cfg,
	})
	must(err)
	res := final.Augment
	fmt.Printf("\ntuned + beam(4) run: accuracy %.4f via %s\n", res.Best.Eval.Accuracy, res.Best.Path)
	fmt.Printf("explored %d joins (beam bounds the frontier), selection %v\n",
		res.Ranking.PathsExplored, res.SelectionTime)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
