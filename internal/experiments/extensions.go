package experiments

import (
	"math"

	"densevlc/internal/alloc"
	"densevlc/internal/channel"
	"densevlc/internal/geom"
	"densevlc/internal/scenario"
	"densevlc/internal/stats"
	"densevlc/internal/units"
)

// DensitySweep studies the TX-density question of Sec. 9: fewer transmitters
// mean fewer degrees of freedom, lowering both throughput and fairness.
func DensitySweep(opts Options) Table {
	rng := stats.NewRand(opts.Seed)
	room := geom.Room{Width: 3, Depth: 3, Height: 2.8}

	grids := []struct {
		name    string
		rows    int
		spacing units.Meters
	}{
		{"3x3 (1.0 m)", 3, 1.0},
		{"4x4 (0.75 m)", 4, 0.75},
		{"6x6 (0.5 m)", 6, 0.5},
		{"8x8 (0.375 m)", 8, 0.375},
	}

	nInst := 20
	if opts.Quick {
		nInst = 5
	}

	t := Table{
		ID:     "Ext. density",
		Title:  "System throughput and fairness vs TX density (κ=1.3, 1.19 W budget)",
		Header: []string{"grid", "TXs", "mean throughput [Mb/s]", "min/max RX ratio"},
	}

	base := scenario.Default()
	for _, g := range grids {
		set := base
		set.Grid = geom.CenteredGrid(room, g.rows, g.rows, g.spacing, room.Height)
		var sys, fair []float64
		// Use the default anchors only when they exist in this grid; draw
		// fully random placements instead so every density is comparable.
		for k := 0; k < nInst; k++ {
			rx := make([]geom.Vec, 4)
			for i := range rx {
				rx[i] = geom.V(0.4+rng.Float64()*2.2, 0.4+rng.Float64()*2.2, 0)
			}
			env := set.Env(rx, nil)
			s, err := alloc.Heuristic{Kappa: 1.3, AllowPartial: true}.Allocate(env, 1.19)
			if err != nil {
				continue
			}
			ev := alloc.Evaluate(env, s)
			sys = append(sys, ev.SumThroughput.Bps()/1e6)
			min, max := ev.Throughput[0], ev.Throughput[0]
			for _, tp := range ev.Throughput {
				if tp < min {
					min = tp
				}
				if tp > max {
					max = tp
				}
			}
			if max > 0 {
				fair = append(fair, min.Bps()/max.Bps())
			}
		}
		t.Rows = append(t.Rows, []string{
			g.name,
			f("%d", set.Grid.N()),
			f("%.2f", stats.Mean(sys)),
			f("%.2f", stats.Mean(fair)),
		})
	}
	t.Notes = append(t.Notes, "Sec. 9 prediction: lower density → fewer degrees of freedom → lower throughput and fairness")
	return t
}

// BlockageAblation studies Sec. 9's blockage question: an opaque disk between
// ceiling and receivers can hurt (broken links) or help (blocked
// interference).
func BlockageAblation(opts Options) Table {
	set := scenario.Default()
	rx := scenario.Scenario2.RXPositions()

	cases := []struct {
		name    string
		blocker channel.Blocker
	}{
		{"free space", nil},
		{"disk over RX1's TX", channel.DiskBlocker{Center: geom.V(0.92, 0.92, 1.8), Radius: 0.25}},
		{"disk between RX1 and RX2", channel.DiskBlocker{Center: geom.V(1.3, 0.8, 1.8), Radius: 0.25}},
	}

	t := Table{
		ID:     "Ext. blockage",
		Title:  "Effect of an opaque disk on the κ=1.3 allocation (scenario 2, 1.19 W)",
		Header: []string{"case", "system [Mb/s]", "RX1 [Mb/s]", "RX2 [Mb/s]"},
	}
	for _, c := range cases {
		env := set.Env(rx, c.blocker)
		s, err := alloc.Heuristic{Kappa: 1.3, AllowPartial: true}.Allocate(env, 1.19)
		if err != nil {
			t.Rows = append(t.Rows, []string{c.name, "-", "-", "-"})
			continue
		}
		ev := alloc.Evaluate(env, s)
		t.Rows = append(t.Rows, []string{
			c.name,
			f("%.2f", ev.SumThroughput.Bps()/1e6),
			f("%.2f", ev.Throughput[0].Bps()/1e6),
			f("%.2f", ev.Throughput[1].Bps()/1e6),
		})
	}
	t.Notes = append(t.Notes, "Sec. 9: blockage can even help by shadowing interference — compare RX2 across cases")
	return t
}

// AdaptiveKappaStudy evaluates the personalised-κ extension of Sec. 9
// against the fixed-κ heuristic across random instances.
func AdaptiveKappaStudy(opts Options) Table {
	set := scenario.Default()
	rng := stats.NewRand(opts.Seed)
	insts := set.RandomInstances(rng, opts.instances())
	budgets := []units.Watts{0.3, 0.6, 1.19}

	policies := []alloc.Policy{
		alloc.Heuristic{Kappa: 1.3, AllowPartial: true},
		alloc.AdaptiveKappa{AllowPartial: true},
	}

	t := Table{
		ID:     "Ext. adaptive-κ",
		Title:  f("Fixed κ=1.3 vs per-TX adaptive κ over %d instances", len(insts)),
		Header: []string{"P_C,tot [W]", "κ=1.3 [Mb/s]", "adaptive [Mb/s]", "gain [%]"},
	}
	// Environments are read-only for both policies, so they are built once
	// and the instances fan out over the worker pool; results come back in
	// instance order, byte-identical to a sequential loop.
	envs := make([]*alloc.Env, len(insts))
	for ii, inst := range insts {
		envs[ii] = set.Env(inst, nil)
	}
	for _, budget := range budgets {
		means := make([]float64, len(policies))
		for pi, p := range policies {
			sys := fanOut(opts, len(envs), func(ii int) float64 {
				s, err := p.Allocate(envs[ii], budget)
				if err != nil {
					return math.NaN() // one failed instance voids the policy's mean
				}
				return alloc.Evaluate(envs[ii], s).SumThroughput.Bps() / 1e6
			})
			if m := stats.Mean(sys); !math.IsNaN(m) {
				means[pi] = m
			}
		}
		gain := 0.0
		if means[0] > 0 {
			gain = 100 * (means[1] - means[0]) / means[0]
		}
		t.Rows = append(t.Rows, []string{
			f("%.2f", budget), f("%.2f", means[0]), f("%.2f", means[1]), f("%+.1f", gain),
		})
	}
	t.Notes = append(t.Notes, "Sec. 9 hypothesis: per-TX κ can push the heuristic toward the optimum; gains here are instance-dependent")
	return t
}

// RXOrientationStudy exercises Sec. 9's receiver-orientation remark: the
// model is not limited to upward-facing receivers.
func RXOrientationStudy(opts Options) Table {
	set := scenario.Default()
	rx := scenario.Scenario2.RXPositions()

	tilts := []units.Degrees{0, 10, 20, 30, 45}
	t := Table{
		ID:     "Ext. orientation",
		Title:  "System throughput vs receiver tilt (all RXs tilted toward +x)",
		Header: []string{"tilt [deg]", "system [Mb/s]"},
	}
	for _, deg := range tilts {
		dets := set.Detectors(rx)
		rad := units.DegreesToRadians(deg)
		for i := range dets {
			dets[i].Normal = geom.V(math.Sin(rad.Rad()), 0, rad.Cos())
		}
		h := channel.BuildMatrix(set.Emitters(), dets, nil)
		env := &alloc.Env{Params: set.Params, H: h, LED: set.LED}
		s, err := alloc.Heuristic{Kappa: 1.3, AllowPartial: true}.Allocate(env, 1.19)
		if err != nil {
			t.Rows = append(t.Rows, []string{f("%.0f", deg), "-"})
			continue
		}
		ev := alloc.Evaluate(env, s)
		t.Rows = append(t.Rows, []string{f("%.0f", deg), f("%.2f", ev.SumThroughput.Bps()/1e6)})
	}
	t.Notes = append(t.Notes, "both the optimisation and the heuristic work unchanged for tilted receivers — only H changes")
	return t
}
