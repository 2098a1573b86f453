package mac

import (
	"errors"
	"slices"
	"testing"

	"densevlc/internal/alloc"
	"densevlc/internal/channel"
	"densevlc/internal/cluster"
	"densevlc/internal/geom"
	"densevlc/internal/scenario"
	"densevlc/internal/stats"
	"densevlc/internal/units"
)

// TestQuietEpochReturnsCachedPlan is the quiet-epoch regression pin: a
// Reallocate with no fresh reports and no health transition returns the
// cached plan without a single solver call, under the default
// all-covering formation.
func TestQuietEpochReturnsCachedPlan(t *testing.T) {
	set := scenario.Default()
	env := set.Env(scenario.Fig7Instance(), nil)
	probe := &countingPolicy{inner: alloc.Heuristic{AllowPartial: true}}
	ctrl := NewController(env.H.N, env.H.M, probe, 1.19, set.Params, set.LED)

	feedReports(t, ctrl, env.H.H, nil)
	first, err := ctrl.Reallocate()
	if err != nil {
		t.Fatal(err)
	}
	if calls := probe.take(); calls != 1 {
		t.Fatalf("first epoch made %d solver calls, want 1", calls)
	}

	again, err := ctrl.Reallocate()
	if err != nil {
		t.Fatal(err)
	}
	if calls := probe.take(); calls != 0 {
		t.Errorf("quiet epoch made %d solver calls, want 0", calls)
	}
	if again.Seq != first.Seq {
		t.Errorf("quiet epoch advanced Seq to %d; the cached plan is the same decision (%d)", again.Seq, first.Seq)
	}
	for j := range first.Swings {
		for i := range first.Swings[j] {
			if again.Swings[j][i] != first.Swings[j][i] {
				t.Fatalf("quiet epoch changed swing (%d,%d)", j, i)
			}
		}
	}

	// Fresh evidence ends the quiet streak: the next reported epoch solves.
	feedReports(t, ctrl, env.H.H, nil)
	if _, err := ctrl.Reallocate(); err != nil {
		t.Fatal(err)
	}
	if calls := probe.take(); calls != 1 {
		t.Errorf("reported epoch made %d solver calls, want 1", calls)
	}
}

// TestQuietEpochIsAllocationFree pins the quiet-epoch fast path to the
// advertised 0 allocs/op: a no-news Reallocate is a freshness scan and a
// cached return.
func TestQuietEpochIsAllocationFree(t *testing.T) {
	set := scenario.Default()
	env := set.Env(scenario.Fig7Instance(), nil)
	ctrl := NewController(env.H.N, env.H.M, alloc.Heuristic{AllowPartial: true}, 1.19, set.Params, set.LED)
	feedReports(t, ctrl, env.H.H, nil)
	if _, err := ctrl.Reallocate(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ctrl.Reallocate(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("quiet-epoch Reallocate allocates %.1f times, want 0", n)
	}
}

// driftReports feeds one epoch of reports equal to gains scaled by factor.
func driftReports(t *testing.T, ctrl *Controller, gains [][]float64, factor float64) {
	t.Helper()
	scaled := make([][]float64, len(gains))
	for j := range gains {
		scaled[j] = make([]float64, len(gains[j]))
		for i := range gains[j] {
			scaled[j][i] = gains[j][i] * factor
		}
	}
	feedReports(t, ctrl, scaled, nil)
}

// TestTriggerSkipsSubThresholdDeltas: with the event trigger enabled, an
// epoch whose reports moved less than RelDelta keeps the cached plan at
// zero solver calls; a report beyond the threshold re-solves.
func TestTriggerSkipsSubThresholdDeltas(t *testing.T) {
	set := scenario.Default()
	env := set.Env(scenario.Fig7Instance(), nil)
	probe := &countingPolicy{inner: alloc.Heuristic{AllowPartial: true}}
	ctrl := NewController(env.H.N, env.H.M, probe, 1.19, set.Params, set.LED)
	ctrl.Trigger = Trigger{RelDelta: 0.05}

	feedReports(t, ctrl, env.H.H, nil)
	first, err := ctrl.Reallocate()
	if err != nil {
		t.Fatal(err)
	}
	probe.take()

	// 1% drift: below the 5% threshold — cached plan, no solve.
	driftReports(t, ctrl, env.H.H, 1.01)
	skipped, err := ctrl.Reallocate()
	if err != nil {
		t.Fatal(err)
	}
	if calls := probe.take(); calls != 0 {
		t.Errorf("sub-threshold epoch made %d solver calls, want 0", calls)
	}
	if skipped.Seq != first.Seq {
		t.Errorf("sub-threshold epoch advanced Seq to %d, want cached %d", skipped.Seq, first.Seq)
	}
	if ctrl.HaveFreshReports() {
		t.Error("skip left freshness flags set; next epoch would re-check stale evidence")
	}

	// 20% drift: the trigger fires and the new gains are solved.
	driftReports(t, ctrl, env.H.H, 1.2)
	resolved, err := ctrl.Reallocate()
	if err != nil {
		t.Fatal(err)
	}
	if calls := probe.take(); calls != 1 {
		t.Errorf("above-threshold epoch made %d solver calls, want 1", calls)
	}
	if resolved.Seq == first.Seq {
		t.Error("above-threshold epoch kept the cached Seq; a new plan was due")
	}
}

// TestTriggerAccumulatesDrift: deltas measure against the basis of the last
// solve, not the last report, so slow drift cannot sneak under a per-epoch
// threshold forever.
func TestTriggerAccumulatesDrift(t *testing.T) {
	set := scenario.Default()
	env := set.Env(scenario.Fig7Instance(), nil)
	probe := &countingPolicy{inner: alloc.Heuristic{AllowPartial: true}}
	ctrl := NewController(env.H.N, env.H.M, probe, 1.19, set.Params, set.LED)
	ctrl.Trigger = Trigger{RelDelta: 0.05}

	feedReports(t, ctrl, env.H.H, nil)
	if _, err := ctrl.Reallocate(); err != nil {
		t.Fatal(err)
	}
	probe.take()

	// 3% per epoch: epoch one is under the 5% threshold, epoch two is 6%
	// cumulative and must fire.
	driftReports(t, ctrl, env.H.H, 1.03)
	if _, err := ctrl.Reallocate(); err != nil {
		t.Fatal(err)
	}
	if calls := probe.take(); calls != 0 {
		t.Fatalf("3%% cumulative drift solved %d times, want 0", calls)
	}
	driftReports(t, ctrl, env.H.H, 1.06)
	if _, err := ctrl.Reallocate(); err != nil {
		t.Fatal(err)
	}
	if calls := probe.take(); calls != 1 {
		t.Errorf("6%% cumulative drift solved %d times, want 1", calls)
	}
}

// failingPolicy fails its Allocate calls while fail is set and records the
// channel matrix of the last call it passed to the inner policy.
type failingPolicy struct {
	inner alloc.Policy
	fail  bool
	seen  *channel.Matrix
}

func (p *failingPolicy) Name() string { return p.inner.Name() }

func (p *failingPolicy) Allocate(env *alloc.Env, budget units.Watts) (channel.Swings, error) {
	if p.fail {
		return nil, errors.New("injected solver failure")
	}
	p.seen = env.H.Clone()
	return p.inner.Allocate(env, budget)
}

// TestTriggerFailedSolveForcesFullPath: a failed solve leaves no basis, so
// the next decision re-solves every column from the latest reports, as the
// first one does. Without that rule the failed epoch's partial refresh would
// become the basis, and the next epoch would solve its sub-threshold columns
// from the gains of two epochs ago.
func TestTriggerFailedSolveForcesFullPath(t *testing.T) {
	set := scenario.Default()
	env := set.Env(scenario.Fig7Instance(), nil)
	probe := &failingPolicy{inner: alloc.Heuristic{AllowPartial: true}}
	ctrl := NewController(env.H.N, env.H.M, probe, 1.19, set.Params, set.LED)
	ctrl.Trigger = Trigger{RelDelta: 0.05}

	feedReports(t, ctrl, env.H.H, nil)
	if _, err := ctrl.Reallocate(); err != nil {
		t.Fatal(err)
	}

	// RX 0 moves 20% (dirty), the others 1% (clean); the solve fails.
	moved := make([][]float64, len(env.H.H))
	for j, row := range env.H.H {
		moved[j] = make([]float64, len(row))
		for i, g := range row {
			moved[j][i] = g * 1.01
			if i == 0 {
				moved[j][i] = g * 1.2
			}
		}
	}
	feedReports(t, ctrl, moved, nil)
	probe.fail = true
	if _, err := ctrl.Reallocate(); err == nil {
		t.Fatal("injected failure did not surface")
	}

	// The same reports again: the solve must see every column as reported.
	probe.fail = false
	probe.seen = nil
	feedReports(t, ctrl, moved, nil)
	if _, err := ctrl.Reallocate(); err != nil {
		t.Fatal(err)
	}
	if probe.seen == nil {
		t.Fatal("epoch after a failed solve kept the cached plan; a solve was due")
	}
	for j := range ctrl.gains {
		for i, g := range ctrl.gains[j] {
			if probe.seen.H[j][i] != g {
				t.Fatalf("solve after a failure read gain (%d,%d) = %v, reported %v", j, i, probe.seen.H[j][i], g)
			}
		}
	}
}

// TestTriggerMaxStaleEpochsBoundsSkips: the staleness bound forces a full
// re-solve even when every delta stays under the threshold.
func TestTriggerMaxStaleEpochsBoundsSkips(t *testing.T) {
	set := scenario.Default()
	env := set.Env(scenario.Fig7Instance(), nil)
	probe := &countingPolicy{inner: alloc.Heuristic{AllowPartial: true}}
	ctrl := NewController(env.H.N, env.H.M, probe, 1.19, set.Params, set.LED)
	ctrl.Trigger = Trigger{RelDelta: 0.5, MaxStaleEpochs: 2}

	feedReports(t, ctrl, env.H.H, nil)
	if _, err := ctrl.Reallocate(); err != nil {
		t.Fatal(err)
	}
	probe.take()

	solves := []int{0, 1, 0, 1} // skip, forced, skip, forced
	for epoch, want := range solves {
		driftReports(t, ctrl, env.H.H, 1.001)
		if _, err := ctrl.Reallocate(); err != nil {
			t.Fatal(err)
		}
		if calls := probe.take(); calls != want {
			t.Errorf("stale epoch %d solved %d times, want %d", epoch, calls, want)
		}
	}
}

// TestTriggerSkipIsAllocationFree pins the event-driven steady state: a
// below-threshold epoch costs the O(N·fresh) dirty check and nothing on the
// heap.
func TestTriggerSkipIsAllocationFree(t *testing.T) {
	set := scenario.Default()
	env := set.Env(scenario.Fig7Instance(), nil)
	ctrl := NewController(env.H.N, env.H.M, alloc.Heuristic{AllowPartial: true}, 1.19, set.Params, set.LED)
	ctrl.Trigger = Trigger{RelDelta: 0.05}
	feedReports(t, ctrl, env.H.H, nil)
	if _, err := ctrl.Reallocate(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		for i := range ctrl.fresh {
			ctrl.fresh[i] = true // same gains re-reported: delta is zero
		}
		if _, err := ctrl.Reallocate(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("trigger-skip Reallocate allocates %.1f times, want 0", n)
	}
}

// TestIncrementalVsScratchController is the controller-level equivalence
// property: a sharded controller with the event trigger enabled produces
// bit-identical plans to an untriggered one across a mobility sequence, as
// long as every epoch's movement crosses the threshold for the receiver
// that moved (clean receivers' columns hold exactly the gains the cached
// sub-plans were solved on).
func TestIncrementalVsScratchController(t *testing.T) {
	set := scenario.Default()
	rng := stats.NewRand(89)
	mv := set.NewMover(set.UniformRXs(rng, 6), nil)
	n, m := mv.Env().H.N, mv.Env().H.M

	policy := alloc.Heuristic{AllowPartial: true}
	budget := units.Watts(1.19)
	mk := func(trigger Trigger) *Controller {
		c := NewController(n, m, policy, budget, set.Params, set.LED)
		c.Trigger = trigger
		c.EnableSharding(cluster.Spec{Threshold: 0.6}, 1)
		return c
	}
	triggered := mk(Trigger{RelDelta: 1e-9})
	scratch := mk(Trigger{})

	for epoch := 0; epoch < 8; epoch++ {
		// The Mover refreshes H only when Env is called, so the gains are
		// read through Env after every move, and the moved column must
		// differ from the one the previous epoch reported.
		if epoch > 0 {
			rx := epoch % m
			before := mv.Env().H.Column(rx)
			mv.MoveRX(rx, geom.V(rng.Float64()*set.Room.Width.M(), rng.Float64()*set.Room.Depth.M(), 0))
			if after := mv.Env().H.Column(rx); slices.Equal(after, before) {
				t.Fatalf("epoch %d: moving RX %d left its column unchanged", epoch, rx)
			}
		}
		gains := mv.Env().H.H
		feedReports(t, triggered, gains, nil)
		feedReports(t, scratch, gains, nil)
		pt, err := triggered.Reallocate()
		if err != nil {
			t.Fatal(err)
		}
		ps, err := scratch.Reallocate()
		if err != nil {
			t.Fatal(err)
		}
		for j := range ps.Swings {
			for i := range ps.Swings[j] {
				if pt.Swings[j][i] != ps.Swings[j][i] {
					t.Fatalf("epoch %d: swing (%d,%d) = %v triggered, %v scratch",
						epoch, j, i, pt.Swings[j][i], ps.Swings[j][i])
				}
			}
		}
	}
}
