package experiments

import (
	"math"

	"densevlc/internal/alloc"
	"densevlc/internal/channel"
	"densevlc/internal/geom"
	"densevlc/internal/mac"
	"densevlc/internal/mobility"
	"densevlc/internal/scenario"
	"densevlc/internal/sim"
	"densevlc/internal/stats"
	"densevlc/internal/units"
)

// countedPolicy counts Allocate calls. It is per-run single-goroutine
// state: sim.Run decides on its own goroutine, and the studies fan out
// across runs, not within one.
type countedPolicy struct {
	inner alloc.Policy
	calls int
}

func (p *countedPolicy) Name() string { return p.inner.Name() }

func (p *countedPolicy) Allocate(env *alloc.Env, budget units.Watts) (channel.Swings, error) {
	p.calls++
	return p.inner.Allocate(env, budget)
}

// corridorResult is one run of a corridor study.
type corridorResult struct {
	epochs, solves   int
	meanSys, meanMov float64 // mean system and RX1 throughput [Mb/s]
	err              error
}

// runCorridor runs the shipped epoch loop (sim.Run) with RX1 on path and
// the other receivers parked on the scenario-3 spots: the κ = 1.3
// heuristic at 1.19 W under trigger, noise-free pilots, one epoch every
// step whose time round × step falls within [0, duration] (the tolerance
// absorbs the quotient's rounding).
func runCorridor(path mobility.Waypoints, duration, step units.Seconds, trigger mac.Trigger, seed int64) corridorResult {
	fixed := scenario.Scenario3.RXPositions()
	probe := &countedPolicy{inner: alloc.Heuristic{Kappa: 1.3, AllowPartial: true}}
	res, err := sim.Run(sim.Config{
		Setup:         scenario.Default(),
		Trajectories:  []mobility.Trajectory{path, mobility.Static{Pos: fixed[1]}, mobility.Static{Pos: fixed[2]}, mobility.Static{Pos: fixed[3]}},
		Policy:        probe,
		Budget:        1.19,
		Rounds:        int(math.Floor(duration.S()/step.S()+1e-9)) + 1,
		RoundDuration: step,
		Trigger:       trigger,
		Seed:          seed,
	})
	if err != nil {
		return corridorResult{err: err}
	}
	var sys, mov []float64
	for _, r := range res.Rounds {
		sys = append(sys, r.Eval.SumThroughput.Bps()/1e6)
		mov = append(mov, r.Eval.Throughput[0].Bps()/1e6)
	}
	return corridorResult{epochs: len(res.Rounds), solves: probe.calls, meanSys: stats.Mean(sys), meanMov: stats.Mean(mov)}
}

// IncrementalStudy quantifies the incremental re-allocation machinery on a
// mobility workload: RX1 loops along the clear corridor while the rest
// park, and sim.Run drives the shipped epoch loop — pilots from a perfect
// estimator, reports over the wire, the controller's decision, the
// allocation frame — under two trigger modes: full re-solve every epoch,
// and the event trigger (solve only when a reported gain moved more than
// RelDelta since the last solve basis). Columns are deterministic counts
// and means — no timing — so the table doubles as a golden regression for
// the trigger; bench/'s floor-churn workload measures the wall-clock side.
func IncrementalStudy(opts Options) Table {
	path := mobility.Waypoints{
		Points: []geom.Vec{geom.V(0.45, 1.25, 0), geom.V(2.55, 1.25, 0)},
		Speed:  0.25,
		Loop:   true,
	}
	duration := 2 * path.Duration()
	step := units.Seconds(0.2)
	if opts.Quick {
		step = 1.0
	}

	modes := []struct {
		name    string
		trigger mac.Trigger
	}{
		{"full re-solve", mac.Trigger{}},
		{"event trigger", mac.Trigger{RelDelta: 0.35, MaxStaleEpochs: 4}},
	}

	results := fanOut(opts, len(modes), func(mi int) corridorResult {
		return runCorridor(path, duration, step, modes[mi].trigger, opts.Seed)
	})

	t := Table{
		ID:     "Ext. incremental",
		Title:  "Incremental re-allocation on a waypoint loop (RX1 at 0.25 m/s, two laps)",
		Header: []string{"mode", "epochs", "solves", "system [Mb/s]", "moving RX [Mb/s]"},
	}
	for mi, r := range results {
		if r.err != nil {
			t.Rows = append(t.Rows, []string{modes[mi].name, "error", r.err.Error(), "", ""})
			continue
		}
		t.Rows = append(t.Rows, []string{
			modes[mi].name,
			f("%d", r.epochs),
			f("%d", r.solves),
			f("%.2f", r.meanSys),
			f("%.2f", r.meanMov),
		})
	}
	t.Notes = append(t.Notes,
		"the trigger row trades solves for staleness: below-threshold epochs reuse the cached plan, the MaxStaleEpochs bound forces an occasional refresh",
		"solver work, not wall-clock, is the deterministic proxy here; bench/'s floor-churn workload measures the wall-clock side; CHANGES.md (PR 9) keeps the historical speedups")
	return t
}
