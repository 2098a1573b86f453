package experiments

import (
	"math"

	"densevlc/internal/chaos"
	"densevlc/internal/mobility"
	"densevlc/internal/scenario"
	"densevlc/internal/sim"
	"densevlc/internal/stats"
)

// Resilience quantifies the paper's graceful-degradation promise (Sec. 6)
// under hard transmitter failures: for each k in 0..8, k random LEDs go
// dark and the table reports how much system throughput remains and whether
// anyone starves. Each instance is one static epoch of the shipped loop
// (sim.Run): the chaos injector fails the transmitters at the round
// boundary, the receivers report what their pilots measured, the
// controller's health tracker and decision see those reports, and the plan
// is scored as the allocation frame carried it over the wire. Because every
// receiver is served by many distributed transmitters, losing up to 8 of 36
// should cost throughput smoothly while every receiver keeps its link — the
// starved column staying at zero is the claim under test.
//
// Failures per instance are drawn once as a failing order
// (chaos.RandomTXFailures), so row k kills a superset of row k-1's
// casualties: a progressive blackout, not independent draws.
func Resilience(opts Options) Table {
	const maxFail = 8
	set := scenario.Default()
	n := set.Grid.N()
	inst := opts.instances()

	// Placements and failing orders come off the master stream before any
	// fan-out, so the numbers cannot depend on scheduling.
	rng := stats.NewRand(opts.Seed)
	positions := set.RandomInstances(rng, inst)
	orders := make([][]int, inst)
	for i := range orders {
		_, chosen := chaos.RandomTXFailures(stats.SplitRand(rng), 0, n, maxFail)
		orders[i] = chosen
	}

	type row struct {
		meanSys, meanMin, meanSumLog float64
		starved                      int
	}
	rows := fanOut(opts, maxFail+1, func(k int) row {
		var sys, minRX, sumLog []float64
		starved := 0
		for i := 0; i < inst; i++ {
			schedule := chaos.NewSchedule()
			for _, tx := range orders[i][:k] {
				schedule.TXFail(0, tx)
			}
			var traj []mobility.Trajectory
			for _, p := range positions[i] {
				traj = append(traj, mobility.Static{Pos: p})
			}
			res, err := sim.Run(sim.Config{
				Setup:        set,
				Trajectories: traj,
				Budget:       1.19,
				Rounds:       1,
				Chaos:        schedule,
				Seed:         opts.Seed,
			})
			if err != nil {
				continue
			}
			ev := res.Rounds[0].Eval
			sys = append(sys, ev.SumThroughput.Bps()/1e6)
			low := math.Inf(1)
			for _, tp := range ev.Throughput {
				bps := tp.Bps()
				if bps <= 0 {
					starved++
				}
				low = math.Min(low, bps/1e6)
			}
			minRX = append(minRX, low)
			sumLog = append(sumLog, ev.SumLog)
		}
		return row{
			meanSys:    stats.Mean(sys),
			meanMin:    stats.Mean(minRX),
			meanSumLog: stats.Mean(sumLog),
			starved:    starved,
		}
	})

	tbl := Table{
		ID:    "Ext. resilience",
		Title: f("System throughput vs simultaneously failed TXs (%d random instances, progressive blackout)", inst),
		Header: []string{
			"failed TXs", "system [Mb/s]", "vs intact", "min RX [Mb/s]", "sum-log", "starved RXs",
		},
	}
	intact := rows[0].meanSys
	for k, r := range rows {
		rel := "-"
		if intact > 0 {
			rel = f("%.0f%%", 100*r.meanSys/intact)
		}
		tbl.Rows = append(tbl.Rows, []string{
			f("%d", k), f("%.2f", r.meanSys), rel, f("%.2f", r.meanMin),
			f("%.3f", r.meanSumLog), f("%d", r.starved),
		})
	}
	tbl.Notes = append(tbl.Notes,
		"zero-gain rows never rank for any receiver, so the heuristic excludes casualties the moment it re-allocates",
		"starved RXs counts receiver-instances left at zero throughput — the graceful-degradation claim is that dense LEDs keep this at 0",
		"failing orders are drawn per instance from seeded streams (chaos.RandomTXFailures); row k's casualties contain row k-1's")
	return tbl
}
