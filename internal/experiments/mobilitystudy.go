package experiments

import (
	"math"

	"densevlc/internal/geom"
	"densevlc/internal/mac"
	"densevlc/internal/mobility"
	"densevlc/internal/units"
)

// MobilityStudy quantifies the paper's fast-adaptation requirement
// (Sec. 2.1, Sec. 5): a receiver crosses the room at gantry speed and the
// controller refreshes the allocation every T seconds. Each period is one
// sim.Run of the shipped epoch loop whose trigger only the staleness cap
// can fire: a RelDelta of math.MaxFloat64 is a gain delta no report
// exceeds, and MaxStaleEpochs = T/step forces the solve on epochs 0, T/step,
// 2T/step, … (0 never forces one). Stale allocations keep pointing
// beamspots at where the receiver used to be, so the time-averaged
// throughput decays with the refresh period — which is why a 165-second
// optimal solve is useless for mobile receivers while the 25-microsecond
// heuristic can refresh every channel-measurement round.
func MobilityStudy(opts Options) Table {
	// RX1 crosses the room along the clear corridor; the rest park on the
	// scenario-3 spots.
	moving := mobility.Waypoints{
		Points: []geom.Vec{geom.V(0.45, 1.25, 0), geom.V(2.55, 1.25, 0)},
		Speed:  0.25, // m/s, comfortable ACRO gantry speed
	}

	step := units.Seconds(0.2)
	if opts.Quick {
		step = 1.0
	}

	tbl := Table{
		ID:     "Ext. adaptation",
		Title:  "Time-averaged throughput vs allocation refresh period (RX1 crossing at 0.25 m/s)",
		Header: []string{"refresh period [s]", "system [Mb/s]", "moving RX [Mb/s]", "vs continuous", "net of pilots [Mb/s]"},
	}

	// Each refresh costs a measurement round: 36 pilot slots at ≈2 ms each
	// (pilot + preamble airtime, plus each slot's share of the report
	// window and of the one pilot-schedule frame sent per epoch) — airtime
	// stolen from data. Gross staleness gains and pilot overhead pull in
	// opposite directions, so the net column has an interior optimum.
	const measurementRound = 36 * 2e-3

	periods := []units.Seconds{0.2, 1, 2, 4, 8, 0} // 0: allocate once, never refresh
	if opts.Quick {
		periods = []units.Seconds{1, 4, 0}
	}

	// Each refresh period replays the whole crossing independently, so the
	// periods fan out; the relative column needs the fastest period's mean,
	// so rows are assembled serially afterwards.
	results := fanOut(opts, len(periods), func(pi int) corridorResult {
		trigger := mac.Trigger{RelDelta: math.MaxFloat64, MaxStaleEpochs: int(math.Round(periods[pi].S() / step.S()))}
		return runCorridor(moving, moving.Duration(), step, trigger, opts.Seed)
	})

	baselineSys := results[0].meanSys
	for pi, period := range periods {
		label := f("%.1f", period)
		if period == 0 {
			label = "never"
		}
		if results[pi].err != nil {
			tbl.Rows = append(tbl.Rows, []string{label, "error", results[pi].err.Error(), "", ""})
			continue
		}
		rel := "-"
		if baselineSys > 0 {
			rel = f("%.0f%%", 100*results[pi].meanSys/baselineSys)
		}
		overhead := 0.0
		if period > 0 {
			overhead = math.Min(measurementRound/period.S(), 1)
		}
		tbl.Rows = append(tbl.Rows, []string{
			label, f("%.2f", results[pi].meanSys), f("%.2f", results[pi].meanMov), rel,
			f("%.2f", results[pi].meanSys*(1-overhead)),
		})
	}
	tbl.Notes = append(tbl.Notes,
		"the heuristic's 25 µs decisions support the fastest row; the paper's 165 s Matlab optimal could not even sustain the slowest",
		"the moving receiver column shows who pays for staleness — the beamspot keeps shining at its old position",
		"the net column charges each refresh its 72 ms measurement round: refreshing as fast as possible is NOT optimal — the net optimum is an interior period, 4 s for this crossing at gantry speed")
	return tbl
}
