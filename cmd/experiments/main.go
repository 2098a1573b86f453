// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments [-quick] [-seed N] [-instances N] [-workers N] [name ...]
//
// With no names, every experiment runs in paper order. Names follow the
// registry (table1, table2, table3, table6, fig2..fig12, speedup, frontend,
// table4, table5, fig18..fig21, density, precoding, ofdm, adaptation,
// nlosrobustness, blockage, resilience, adaptivekappa, orientation,
// clusterscale, incremental, churn); use -list for the full set.
package main

import (
	"flag"
	"fmt"
	"os"

	"densevlc/internal/experiments"
	"densevlc/internal/stats"
)

func main() {
	list := flag.Bool("list", false, "list available experiments and exit")
	quick := flag.Bool("quick", false, "shrink workloads for a fast smoke run")
	seed := flag.Int64("seed", 1, "random seed")
	instances := flag.Int("instances", 0, "random instances for Fig. 6-based studies (0 = paper's 100)")
	formatName := flag.String("format", "text", "output format: text, csv, json or markdown (md)")
	workers := flag.Int("workers", 0, "worker goroutines for the Monte-Carlo fan-out (0 = all cores, 1 = serial; results are identical for every value)")
	flag.Parse()

	format, err := experiments.ParseFormat(*formatName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}

	if *list {
		for _, g := range experiments.All() {
			fmt.Println(g.Name)
		}
		return
	}

	opts := experiments.Options{Seed: *seed, Instances: *instances, Quick: *quick, Workers: *workers}

	names := flag.Args()
	if len(names) == 0 {
		for _, g := range experiments.All() {
			names = append(names, g.Name)
		}
	}

	failed := false
	for _, name := range names {
		g, ok := experiments.Lookup(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (try -list)\n", name)
			failed = true
			continue
		}
		sw := stats.StartStopwatch()
		table := g.Run(opts)
		if err := table.Write(os.Stdout, format); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			failed = true
			continue
		}
		if format == experiments.FormatText {
			fmt.Printf("\n(%s in %.2fs)\n\n", name, sw.Seconds())
		}
	}
	if failed {
		os.Exit(1)
	}
}
