package experiments

import (
	"densevlc/internal/alloc"
	"densevlc/internal/channel"
	"densevlc/internal/frame"
	"densevlc/internal/geom"
	"densevlc/internal/mac"
	"densevlc/internal/mobility"
	"densevlc/internal/scenario"
	"densevlc/internal/stats"
	"densevlc/internal/units"
)

// countedPolicy counts Allocate calls. It is per-mode single-goroutine
// state; IncrementalStudy fans out across modes, not within one.
type countedPolicy struct {
	inner alloc.Policy
	calls int
}

func (p *countedPolicy) Name() string { return p.inner.Name() }

func (p *countedPolicy) Allocate(env *alloc.Env, budget units.Watts) (channel.Swings, error) {
	p.calls++
	return p.inner.Allocate(env, budget)
}

// cachedPolicy fronts the inner policy with a geometry cache keyed on the
// mover's receiver positions: a hit is re-validated against the env the
// controller hands it, a miss solves through the inner policy and is
// memoised.
type cachedPolicy struct {
	inner alloc.Policy
	cache *alloc.GeoCache
	mv    *scenario.Mover
}

func (p *cachedPolicy) Name() string { return p.inner.Name() }

func (p *cachedPolicy) Allocate(env *alloc.Env, budget units.Watts) (channel.Swings, error) {
	key := p.cache.Key(p.mv.Positions(), nil)
	if s, ok := p.cache.Get(key, env, budget); ok {
		return s, nil
	}
	s, err := p.inner.Allocate(env, budget)
	if err == nil {
		p.cache.Put(key, s)
	}
	return s, err
}

// IncrementalStudy quantifies the incremental re-allocation machinery on a
// mobility workload: RX1 loops along the clear corridor while the rest
// park, every receiver reports each epoch, and three controller modes re-
// decide — full re-solve every epoch, the event trigger (solve only when a
// reported gain moved more than RelDelta since the last solve basis), and a
// quantised-geometry cache that replays decisions when the loop revisits a
// position cell. Columns are deterministic counts and means — no timing —
// so the table doubles as a golden regression for the trigger and cache
// policies; bench/'s floor-churn workload measures the wall-clock side, and
// CHANGES.md (PR 9) keeps the historical speedups.
func IncrementalStudy(opts Options) Table {
	set := scenario.Default()
	fixed := scenario.Scenario3.RXPositions()
	path := mobility.Waypoints{
		Points: []geom.Vec{geom.V(0.45, 1.25, 0), geom.V(2.55, 1.25, 0)},
		Speed:  0.25,
		Loop:   true,
	}
	// Two laps, so the cache mode's second lap can replay the first.
	duration := units.Seconds(2 * path.Duration().S())
	step := units.Seconds(0.2)
	if opts.Quick {
		step = 1.0
	}
	budget := units.Watts(1.19)

	modes := []struct {
		name    string
		trigger mac.Trigger
		cache   bool
	}{
		{"full re-solve", mac.Trigger{}, false},
		{"event trigger", mac.Trigger{RelDelta: 0.35, MaxStaleEpochs: 4}, false},
		{"geometry cache", mac.Trigger{}, true},
	}

	type modeResult struct {
		epochs, solves, hits int
		meanSys, meanMov     float64
		err                  error
	}
	results := fanOut(opts, len(modes), func(mi int) modeResult {
		mode := modes[mi]
		mv := set.NewMover([]geom.Vec{path.Position(0), fixed[1], fixed[2], fixed[3]}, nil)
		env := mv.Env()
		probe := &countedPolicy{inner: alloc.Heuristic{Kappa: 1.3, AllowPartial: true}}
		var policy alloc.Policy = probe
		var cache *alloc.GeoCache
		if mode.cache {
			cache = alloc.NewGeoCache(0.10, 64)
			policy = &cachedPolicy{inner: probe, cache: cache, mv: mv}
		}
		ctrl := mac.NewController(env.H.N, env.H.M, policy, budget, set.Params, set.LED)
		ctrl.Trigger = mode.trigger

		var res modeResult
		var sys, mov []float64
		col := make([]float64, env.H.N)
		for t := units.Seconds(0); t <= duration; t += step {
			p := path.Position(t)
			mv.MoveRX(0, geom.V(p.X, p.Y, 0))
			// Every receiver reports its measured column, like a
			// pilot round with a perfect estimator.
			for i := 0; i < env.H.M; i++ {
				env.H.ColumnInto(col, i)
				up := frame.MAC{Protocol: mac.ProtoReport, Payload: mac.Report{RX: i, Gains: col}.Encode()}
				if err := ctrl.HandleUplink(up); err != nil {
					return modeResult{err: err}
				}
			}
			plan, err := ctrl.Reallocate()
			if err != nil {
				return modeResult{err: err}
			}
			ev := alloc.Evaluate(env, plan.Swings)
			sys = append(sys, ev.SumThroughput.Bps()/1e6)
			mov = append(mov, ev.Throughput[0].Bps()/1e6)
			res.epochs++
		}
		res.solves = probe.calls
		if cache != nil {
			res.hits = cache.Hits()
		}
		res.meanSys, res.meanMov = stats.Mean(sys), stats.Mean(mov)
		return res
	})

	t := Table{
		ID:     "Ext. incremental",
		Title:  "Incremental re-allocation on a waypoint loop (RX1 at 0.25 m/s, two laps)",
		Header: []string{"mode", "epochs", "solves", "cache hits", "system [Mb/s]", "moving RX [Mb/s]"},
	}
	for mi, r := range results {
		if r.err != nil {
			t.Rows = append(t.Rows, []string{modes[mi].name, "error", r.err.Error(), "", "", ""})
			continue
		}
		hits := "-"
		if modes[mi].cache {
			hits = f("%d", r.hits)
		}
		t.Rows = append(t.Rows, []string{
			modes[mi].name,
			f("%d", r.epochs),
			f("%d", r.solves),
			hits,
			f("%.2f", r.meanSys),
			f("%.2f", r.meanMov),
		})
	}
	t.Notes = append(t.Notes,
		"the trigger row trades solves for staleness: below-threshold epochs reuse the cached plan, the MaxStaleEpochs bound forces an occasional refresh",
		"the cache row replays lap one's decisions on lap two — hits are byte-identical to the solves they memoised, re-validated against the live channel before adoption",
		"solver work, not wall-clock, is the deterministic proxy here; bench/'s floor-churn workload measures the wall-clock side; CHANGES.md (PR 9) keeps the historical speedups")
	return t
}
