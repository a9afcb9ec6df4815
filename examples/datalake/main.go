// Data lake walkthrough: generates the "credit" Table II analogue,
// compares the benchmark setting (known KFK constraints) with the data
// lake setting (relationships rediscovered by schema matching, spurious
// edges included), and shows AutoFeat pruning the noise.
//
// Each setting is one resident Lake session over the same tables (a
// lake's DRG setting is fixed when it is opened), so the frames are
// loaded once and each DRG is built once. The lake comes from the
// bundled synthetic generator; with your own data, point
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

	// Setting 1: curated KFK constraints (snowflake schema).
	benchLake := autofeat.NewLake(ds.Tables, autofeat.WithKFKs(ds.KFKs))
	bench, err := benchLake.DRG()
	must(err)
	// Setting 2: drop the metadata, rediscover with the matcher.
	dataLake := autofeat.NewLake(ds.Tables, autofeat.WithThreshold(0.55))
	lakeDRG, err := dataLake.DRG()
	must(err)
	fmt.Printf("benchmark DRG: %d edges | lake DRG: %d edges (extra = spurious candidates)\n",
		bench.NumEdges(), lakeDRG.NumEdges())

	model, err := autofeat.ModelByName("lightgbm")
	must(err)
	for _, tc := range []struct {
		name string
		lake *autofeat.Lake
	}{
		{"benchmark", benchLake},
		{"lake", dataLake},
	} {
		// Each lake's DRG is already built from above; the discovery run
		// reuses it plus the lake's shared join-index cache.
		disc, err := tc.lake.NewDiscovery(ds.Base.Name(), ds.Label, autofeat.DefaultConfig())
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
