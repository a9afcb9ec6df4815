// Command lakegen materialises the synthetic evaluation data lakes as CSV
// directories, so the other tools (and external users) can work from
// files exactly as they would with a real lake.
//
// Usage:
//
//	lakegen -list
//	lakegen -dataset credit -out ./lake/credit
//	lakegen -dataset credit -out ./lake/credit -format columnar
//	lakegen -dataset all -out ./lake
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"autofeat/internal/datagen"
	"autofeat/internal/frame"
)

func main() {
	var (
		dataset = flag.String("dataset", "", "dataset name from Table II, or 'all'")
		out     = flag.String("out", "lake", "output directory")
		list    = flag.Bool("list", false, "list available datasets and exit")
		quick   = flag.Bool("quick", false, "generate the reduced quick-scale variants")
		format  = flag.String("format", "csv", "table file format: csv or columnar")
	)
	flag.Parse()

	specs := datagen.PaperSpecs()
	if *quick {
		specs = datagen.QuickSpecs()
	}
	if *list {
		fmt.Println("available datasets (rows / joinable tables / features):")
		for _, s := range specs {
			fmt.Printf("  %-12s %6d rows  %2d tables  %3d features (paper: %d rows, %d features)\n",
				s.Name, s.Rows, s.JoinableTables, s.TotalFeatures, s.PaperRows, s.PaperFeatures)
		}
		return
	}
	if *dataset == "" {
		fmt.Fprintln(os.Stderr, "lakegen: -dataset is required (or -list)")
		os.Exit(2)
	}

	var chosen []datagen.Spec
	if *dataset == "all" {
		chosen = specs
	} else {
		for _, s := range specs {
			if s.Name == *dataset {
				chosen = []datagen.Spec{s}
			}
		}
		if len(chosen) == 0 {
			fmt.Fprintf(os.Stderr, "lakegen: unknown dataset %q (try -list)\n", *dataset)
			os.Exit(2)
		}
	}

	for _, spec := range chosen {
		dir := *out
		if *dataset == "all" {
			dir = filepath.Join(*out, spec.Name)
		}
		if err := writeDataset(spec, dir, *format); err != nil {
			fmt.Fprintf(os.Stderr, "lakegen: %s: %v\n", spec.Name, err)
			os.Exit(1)
		}
	}
}

func writeDataset(spec datagen.Spec, dir, format string) error {
	d, err := datagen.Generate(spec)
	if err != nil {
		return err
	}
	switch format {
	case "csv":
		for _, t := range d.Tables {
			if err := t.WriteCSVFile(filepath.Join(dir, t.Name()+".csv")); err != nil {
				return err
			}
		}
	case "columnar":
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		for _, t := range d.Tables {
			if err := frame.WriteColumnarFile(t, filepath.Join(dir, t.Name()+frame.FormatExt)); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown -format %q (csv or columnar)", format)
	}
	// Ground-truth KFK constraints, for the benchmark setting.
	kfk, err := os.Create(filepath.Join(dir, "constraints.txt"))
	if err != nil {
		return err
	}
	defer kfk.Close()
	for _, k := range d.KFKs {
		fmt.Fprintf(kfk, "%s.%s=%s.%s\n", k.ParentTable, k.ParentCol, k.ChildTable, k.ChildCol)
	}
	fmt.Printf("wrote %s: %d tables, base %q, label %q, spurious table %q\n",
		dir, len(d.Tables), d.Base.Name(), d.Label, d.SpuriousTable)
	return nil
}
