// Data lake walkthrough: generates the "credit" Table II analogue,
// compares the benchmark setting (known KFK constraints) with the data
// lake setting (relationships rediscovered by schema matching, spurious
// edges included), and shows AutoFeat pruning the noise.
//
// Both settings run against one resident Lake session, so the tables are
// loaded once and each DRG is built once and memoised. The lake comes
// from the bundled synthetic generator; with your own data, point
// autofeat.OpenLake at a directory of CSVs instead.
//
//	go run ./examples/datalake
package main

import (
	"context"
	"fmt"
	"log"

	"autofeat"
	"autofeat/internal/datagen"
)

func main() {
	spec, _ := datagen.SpecByName("credit")
	ds, err := datagen.Generate(spec)
	must(err)
	fmt.Printf("generated %q: %d tables, %d rows, spurious table %q\n",
		spec.Name, len(ds.Tables), spec.Rows, ds.SpuriousTable)

	l := autofeat.NewLake(ds.Tables)
	// Setting 1: curated KFK constraints (snowflake schema).
	bench, err := l.DRG(autofeat.WithKFKs(ds.KFKs))
	must(err)
	// Setting 2: drop the metadata, rediscover with the matcher.
	lakeDRG, err := l.DRG(autofeat.WithThreshold(0.55))
	must(err)
	fmt.Printf("benchmark DRG: %d edges | lake DRG: %d edges (extra = spurious candidates)\n",
		bench.NumEdges(), lakeDRG.NumEdges())

	model, err := autofeat.ModelByName("lightgbm")
	must(err)
	for _, tc := range []struct {
		name string
		opts []autofeat.LakeOption
	}{
		{"benchmark", []autofeat.LakeOption{autofeat.WithKFKs(ds.KFKs)}},
		{"lake", []autofeat.LakeOption{autofeat.WithThreshold(0.55)}},
	} {
		// The DRG for each setting is already memoised from above; the
		// discovery run reuses it plus the Lake's shared join-index cache.
		disc, err := l.NewDiscovery(ds.Base.Name(), ds.Label, autofeat.DefaultConfig(), tc.opts...)
		must(err)
		res, err := disc.AugmentContext(context.Background(), model)
		must(err)
		fmt.Printf("\n[%s setting]\n", tc.name)
		fmt.Printf("  paths explored %d, pruned %d\n", res.Ranking.PathsExplored, res.Ranking.Prune.Discarded())
		fmt.Printf("  base accuracy      %.3f\n", res.Evaluated[0].Eval.Accuracy)
		fmt.Printf("  augmented accuracy %.3f via %s\n", res.Best.Eval.Accuracy, res.Best.Path)
		fmt.Printf("  selection %v of %v total\n", res.SelectionTime, res.TotalTime)
		// The spurious table must not appear on the winning path.
		for _, table := range res.Best.Path.Tables() {
			if table == ds.SpuriousTable {
				fmt.Printf("  WARNING: spurious table %q survived pruning!\n", table)
			}
		}
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
