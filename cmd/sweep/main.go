// Command sweep runs parameter sweeps over the allocation policies and
// prints CSV for plotting: budget × policy system throughput, per-κ curves,
// and the SISO/D-MISO operating points.
//
// Usage:
//
//	sweep [-scenario 1|2|3] [-points N] [-max W] [-optimal] [-workers N] [-warmstart] [-cluster SPEC]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"densevlc/internal/alloc"
	"densevlc/internal/cluster"
	"densevlc/internal/scenario"
	"densevlc/internal/units"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")

	sc := flag.Int("scenario", 2, "receiver placement (Table 6 scenario 1, 2 or 3)")
	points := flag.Int("points", 24, "number of budget points")
	max := flag.Float64("max", 3.0, "largest communication power budget in watts")
	withOptimal := flag.Bool("optimal", false, "include the optimal policy (slow)")
	workers := flag.Int("workers", 0, "worker goroutines per policy sweep (0 = all cores, 1 = serial; output is identical for every value)")
	warmstart := flag.Bool("warmstart", false, "chain each budget point from the previous point's incumbent for policies that support it (the optimal solver); faster sweeps, same curve structure within solver tolerance")
	clusterSpec := flag.String("cluster", "", "cooperation-clustering formation spec, e.g. threshold:0.5 or topk:4:none; each policy solves per cluster through the sharded solver (empty = global solves)")
	flag.Parse()

	scn, err := scenario.ParseScenario(*sc)
	if err != nil {
		log.Fatal(err)
	}
	set := scenario.Default()
	env := set.Env(scn.RXPositions(), nil)

	policies := []alloc.Policy{
		alloc.Heuristic{Kappa: 1.0, AllowPartial: true},
		alloc.Heuristic{Kappa: 1.2, AllowPartial: true},
		alloc.Heuristic{Kappa: 1.3, AllowPartial: true},
		alloc.Heuristic{Kappa: 1.5, AllowPartial: true},
		alloc.AdaptiveKappa{AllowPartial: true},
	}
	if *withOptimal {
		policies = append(policies, alloc.Optimal{})
	}
	if *clusterSpec != "" {
		sp, err := cluster.Parse(*clusterSpec)
		if err != nil {
			log.Fatal(err)
		}
		for i, p := range policies {
			policies[i] = cluster.Sharded{Inner: p, Spec: sp, Workers: *workers}
		}
	}

	budgets := alloc.BudgetGrid(units.Watts(*max), *points)

	fmt.Print("budget_w")
	for _, p := range policies {
		fmt.Printf(",%s_mbps", p.Name())
	}
	fmt.Println()

	sweep := alloc.SweepParallel
	if *warmstart {
		// Policies without warm-start support (the heuristics) fall back
		// to the parallel cold sweep inside SweepWarmStart.
		sweep = alloc.SweepWarmStart
	}
	results := make([][]alloc.SweepPoint, len(policies))
	for i, p := range policies {
		pts, err := sweep(context.Background(), env, p, budgets, *workers)
		if err != nil {
			log.Fatalf("%s: %v", p.Name(), err)
		}
		results[i] = pts
	}
	for bi, b := range budgets {
		fmt.Printf("%.3f", b)
		for pi := range policies {
			fmt.Printf(",%.4f", results[pi][bi].Eval.SumThroughput.Bps()/1e6)
		}
		fmt.Println()
	}

	// Baseline operating points as comment lines.
	siso := alloc.SISO{}
	dmiso := alloc.DMISO{}
	if s, err := siso.Allocate(env, siso.OperatingPower(env)+1e-9); err == nil {
		ev := alloc.Evaluate(env, s)
		fmt.Printf("# SISO operating point: %.3f W, %.4f Mb/s\n", ev.CommPower, ev.SumThroughput.Bps()/1e6)
	}
	if s, err := dmiso.Allocate(env, dmiso.OperatingPower(env)+1e-9); err == nil {
		ev := alloc.Evaluate(env, s)
		fmt.Printf("# D-MISO operating point: %.3f W, %.4f Mb/s\n", ev.CommPower, ev.SumThroughput.Bps()/1e6)
	}
}
