package workload

import (
	"bytes"
	"math"
	"testing"

	"densevlc/internal/channel"
	"densevlc/internal/scenario"
	"densevlc/internal/stats"
	"densevlc/internal/units"
)

func testEngine(t *testing.T, sp Spec, seed int64) *Engine {
	t.Helper()
	e, err := NewEngine(sp, scenario.Default(), 1.19, stats.NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// run advances the engine through epochs 1-second epochs.
func run(e *Engine, epochs int) []StepStats {
	out := make([]StepStats, 0, epochs)
	for k := 0; k < epochs; k++ {
		out = append(out, e.Step(units.Seconds(k), 1))
	}
	return out
}

func TestEngineRejectsInvalidSpec(t *testing.T) {
	sp := DefaultSpec()
	sp.Fleet = 0
	if _, err := NewEngine(sp, scenario.Default(), 1.19, stats.NewRand(1)); err == nil {
		t.Error("fleet 0 accepted")
	}
	if _, err := NewEngine(DefaultSpec(), scenario.Default(), -1, stats.NewRand(1)); err == nil {
		t.Error("negative budget accepted")
	}
}

// TestEngineTraceDeterministic is the engine-level determinism pin: two
// engines with the same seed and spec produce byte-identical traces and
// identical per-epoch stats.
func TestEngineTraceDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		sp := DefaultSpec()
		sp.ArrivalRate = 1.5
		sp.MeanDwell = 5
		a, b := testEngine(t, sp, seed), testEngine(t, sp, seed)
		sa, sb := run(a, 50), run(b, 50)
		for k := range sa {
			if sa[k] != sb[k] {
				t.Fatalf("seed %d epoch %d: %+v vs %+v", seed, k, sa[k], sb[k])
			}
		}
		if !bytes.Equal(a.TraceBytes(), b.TraceBytes()) {
			t.Errorf("seed %d: traces diverged", seed)
		}
		if len(a.Trace()) == 0 {
			t.Errorf("seed %d: no events in 50 epochs at rate 1.5", seed)
		}
	}
}

// TestEngineSlotAccounting replays the trace against the engine's final
// state: every arrive occupies the lowest slot that a matching depart (or
// nothing) freed, population counters are consistent, and rejections carry
// no slot.
func TestEngineSlotAccounting(t *testing.T) {
	sp := DefaultSpec()
	sp.ArrivalRate = 2
	sp.MeanDwell = 4
	sp.Fleet = 4
	e := testEngine(t, sp, 3)
	run(e, 80)

	occupied := make(map[int]int) // slot → user id
	for _, ev := range e.Trace() {
		switch ev.Kind {
		case EventArrive:
			if _, busy := occupied[ev.Slot]; busy {
				t.Fatalf("arrive user %d into occupied slot %d", ev.User, ev.Slot)
			}
			for s := 0; s < ev.Slot; s++ {
				if _, busy := occupied[s]; !busy {
					t.Fatalf("arrive user %d took slot %d while %d was free", ev.User, ev.Slot, s)
				}
			}
			occupied[ev.Slot] = ev.User
		case EventDepart:
			if occupied[ev.Slot] != ev.User {
				t.Fatalf("depart user %d from slot %d held by %d", ev.User, ev.Slot, occupied[ev.Slot])
			}
			delete(occupied, ev.Slot)
		case EventReject:
			if ev.Slot != -1 {
				t.Fatalf("reject user %d carries slot %d", ev.User, ev.Slot)
			}
			if ev.Population < sp.Fleet && ev.Population < e.capacity() {
				t.Fatalf("reject user %d at population %d below fleet %d and capacity %d", ev.User, ev.Population, sp.Fleet, e.capacity())
			}
		}
		if ev.Population != len(occupied) {
			t.Fatalf("event %+v: recorded population %d, replay says %d", ev, ev.Population, len(occupied))
		}
	}
	if e.Population() != len(occupied) {
		t.Fatalf("final population %d, replay says %d", e.Population(), len(occupied))
	}
}

// TestEngineCapacityGate pins the admission controller: with a per-user
// power floor, the population never exceeds ⌊budget/minwatts⌋ even with
// slots to spare, and over-capacity arrivals are rejected.
func TestEngineCapacityGate(t *testing.T) {
	sp := DefaultSpec()
	sp.ArrivalRate = 4
	sp.MeanDwell = 100 // sessions outlive the run: the gate does the limiting
	sp.Fleet = 8
	sp.MinWattsPerUser = 0.3 // ⌊1.19/0.3⌋ = 3
	e := testEngine(t, sp, 1)
	steps := run(e, 30)

	rejections := 0
	for _, st := range steps {
		if st.Population > 3 {
			t.Fatalf("epoch %d: population %d exceeds the capacity gate of 3", st.Epoch, st.Population)
		}
		rejections += st.Rejections
	}
	if rejections == 0 {
		t.Error("no rejections at rate 4 against capacity 3")
	}
}

// TestEnginePoissonMean sanity-checks the arrival sampler: the empirical
// arrival mean over many epochs with no admission pressure tracks rate·dt.
func TestEnginePoissonMean(t *testing.T) {
	sp := DefaultSpec()
	sp.ArrivalRate = 0.8
	sp.MeanDwell = 0.5 // sessions end almost immediately: slots stay free
	sp.Fleet = 64
	e := testEngine(t, sp, 5)
	const epochs = 2000
	total := 0
	for _, st := range run(e, epochs) {
		total += st.Arrivals + st.Rejections
	}
	mean := float64(total) / epochs
	if math.Abs(mean-0.8) > 0.08 {
		t.Errorf("empirical arrival mean %.3f, want 0.8 ± 0.08", mean)
	}
}

// TestEngineDwellMean sanity-checks session lengths: observed dwell of
// completed sessions tracks MeanDwell.
func TestEngineDwellMean(t *testing.T) {
	sp := DefaultSpec()
	sp.ArrivalRate = 1
	sp.MeanDwell = 6
	sp.Fleet = 64
	e := testEngine(t, sp, 9)
	run(e, 3000)

	arrived := make(map[int]float64)
	var dwells []float64
	for _, ev := range e.Trace() {
		switch ev.Kind {
		case EventArrive:
			arrived[ev.User] = ev.Time.S()
		case EventDepart:
			dwells = append(dwells, ev.Time.S()-arrived[ev.User])
		}
	}
	if len(dwells) < 500 {
		t.Fatalf("only %d completed sessions", len(dwells))
	}
	mean := stats.Mean(dwells)
	if math.Abs(mean-6) > 0.8 {
		t.Errorf("empirical dwell mean %.2f s, want 6 ± 0.8 (n=%d)", mean, len(dwells))
	}
}

// TestEngineMaskZeroesFreeSlots: the channel columns of free slots go dark,
// occupied columns are untouched.
func TestEngineMaskZeroesFreeSlots(t *testing.T) {
	sp := DefaultSpec()
	sp.ArrivalRate = 1
	sp.Fleet = 4
	e := testEngine(t, sp, 2)
	run(e, 10)

	h := channel.NewMatrix(3, 4)
	for j := 0; j < 3; j++ {
		for i := 0; i < 4; i++ {
			h.H[j][i] = 1
		}
	}
	e.Mask(h)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if e.Active(i) {
				want = 1
			}
			if h.H[j][i] != want {
				t.Fatalf("slot %d (active=%v): gain[%d][%d] = %g", i, e.Active(i), j, i, h.H[j][i])
			}
		}
	}
}

// TestEnginePositionsStayInRoom: every occupied slot's position remains
// inside the room at all times, and free slots park at a fixed point.
func TestEnginePositionsStayInRoom(t *testing.T) {
	set := scenario.Default()
	sp := DefaultSpec()
	sp.ArrivalRate = 1
	sp.Speed = 0.5
	e, err := NewEngine(sp, set, 1.19, stats.NewRand(4))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 60; k++ {
		t0 := units.Seconds(k)
		e.Step(t0, 1)
		for i := 0; i < sp.Fleet; i++ {
			p := e.Position(i, t0)
			if p.X < 0 || p.X > set.Room.Width.M() || p.Y < 0 || p.Y > set.Room.Depth.M() {
				t.Fatalf("slot %d at %v escaped the %gx%g room", i, p, set.Room.Width.M(), set.Room.Depth.M())
			}
		}
	}
}

// TestTrafficDemandBounds: per-epoch demand is zero for free slots and idle
// users and peakFrames for bursting ones, and live users are seen in both
// states.
func TestTrafficDemandBounds(t *testing.T) {
	sp := DefaultSpec()
	sp.ArrivalRate = 2
	e := testEngine(t, sp, 6)
	seen := make(map[int]bool)
	for k := 0; k < 200; k++ {
		e.Step(units.Seconds(k), 1)
		for i := 0; i < sp.Fleet; i++ {
			d := e.Demand(i)
			if d != 0 && d != peakFrames {
				t.Fatalf("slot %d demand %d, want 0 or %d", i, d, peakFrames)
			}
			if !e.Active(i) && d != 0 {
				t.Fatalf("free slot %d demands %d frames", i, d)
			}
			if e.Active(i) {
				seen[d] = true
			}
		}
	}
	if !seen[0] || !seen[peakFrames] {
		t.Errorf("live users demanded %v; want both idle and bursting epochs", seen)
	}
}
