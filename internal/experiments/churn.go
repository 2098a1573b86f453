package experiments

import (
	"densevlc/internal/alloc"
	"densevlc/internal/mac"
	"densevlc/internal/scenario"
	"densevlc/internal/sim"
	"densevlc/internal/stats"
	"densevlc/internal/units"
	"densevlc/internal/workload"
)

// ChurnStudy stresses the controller under service-grade population churn:
// an arrival-rate ladder over the paper's room, each row a full synchronous
// system run (real pilot/report/allocate frames over the in-memory
// transport) with Poisson arrivals, exponential dwell, waypoint mobility,
// bursty traffic and an admission capacity gate, the controller on its
// incremental trigger path. Columns are deterministic counts and means —
// admissions, rejections, beamspot handovers, population, throughput — so
// the table doubles as a golden regression for the whole churn path;
// bench/'s floor-churn workload measures the wall-clock side, and
// CHANGES.md (PR 10) keeps the historical decisions/sec and frames/sec.
func ChurnStudy(opts Options) Table {
	set := scenario.Default()
	rates := []float64{0.2, 0.5, 1.0, 2.0}
	rounds := 40
	if opts.Quick {
		rounds = 12
	}
	budget := units.Watts(1.19)

	type rowResult struct {
		epochs, arrivals, rejections, departures int
		handovers, reassignments                 int
		peakPop                                  int
		meanPop, meanSys                         float64
		err                                      error
	}
	results := fanOut(opts, len(rates), func(ri int) rowResult {
		sp := workload.DefaultSpec()
		sp.ArrivalRate = rates[ri]
		sp.MeanDwell = 12
		sp.MinWattsPerUser = 0.2 // capacity gate: ⌊1.19 / 0.2⌋ = 5 of 8 slots
		res, err := sim.Run(sim.Config{
			Setup:         set,
			Workload:      &sp,
			Policy:        alloc.Heuristic{Kappa: 1.3, AllowPartial: true},
			Budget:        budget,
			Rounds:        rounds,
			RoundDuration: 1.0,
			Trigger:       mac.Trigger{RelDelta: 0.05, MaxStaleEpochs: 8},
			Seed:          opts.Seed + int64(ri),
		})
		if err != nil {
			return rowResult{err: err}
		}
		var row rowResult
		var pops, sys []float64
		for _, r := range res.Rounds {
			row.epochs++
			sys = append(sys, r.Eval.SumThroughput.Bps()/1e6)
			c := r.Churn
			row.arrivals += c.Step.Arrivals
			row.rejections += c.Step.Rejections
			row.departures += c.Step.Departures
			row.handovers += c.Handover.Handovers
			row.reassignments += c.Handover.Reassignments
			pops = append(pops, float64(c.Step.Population))
			if c.Step.Population > row.peakPop {
				row.peakPop = c.Step.Population
			}
		}
		row.meanPop, row.meanSys = stats.Mean(pops), stats.Mean(sys)
		return row
	})

	t := Table{
		ID:     "Ext. churn",
		Title:  "Population churn on the 6×6 room (fleet 8, capacity gate 5, incremental trigger)",
		Header: []string{"rate [1/s]", "epochs", "arrivals", "rejected", "departed", "handovers", "reassign", "peak pop", "mean pop", "system [Mb/s]"},
	}
	for ri, r := range results {
		if r.err != nil {
			t.Rows = append(t.Rows, []string{f("%g", rates[ri]), "error", r.err.Error(), "", "", "", "", "", "", ""})
			continue
		}
		t.Rows = append(t.Rows, []string{
			f("%g", rates[ri]),
			f("%d", r.epochs),
			f("%d", r.arrivals),
			f("%d", r.rejections),
			f("%d", r.departures),
			f("%d", r.handovers),
			f("%d", r.reassignments),
			f("%d", r.peakPop),
			f("%.2f", r.meanPop),
			f("%.2f", r.meanSys),
		})
	}
	t.Notes = append(t.Notes,
		"each row is one seeded end-to-end run: arrivals draw Poisson(rate) per epoch, sessions dwell exp(12 s), users roam at 0.25 m/s with bursty traffic",
		"rejections come from two gates: slot exhaustion (fleet 8) and the admission capacity gate (0.2 W minimum share of the 1.19 W budget, so at most 5 users)",
		"handovers count leader (LED) re-assignments of continuously present users; reassignments any serving-set change — the controller's trigger path re-solves only when reported gains move 5%",
		"counts and means are fully deterministic per seed; bench/'s floor-churn workload measures the wall-clock side; CHANGES.md (PR 10) keeps the historical decisions/sec and frames/sec")
	return t
}
