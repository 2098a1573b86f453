package node

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"densevlc/internal/alloc"
	"densevlc/internal/channel"
	"densevlc/internal/chaos"
	"densevlc/internal/clock"
	"densevlc/internal/scenario"
	"densevlc/internal/testutil"
	"densevlc/internal/units"
)

// TestConformancePerRXGoodput is the end-to-end conformance suite's
// fault-free leg: the full 36-TX/4-RX asynchronous runtime must deliver
// per-receiver goodput consistent with what the allocator's analytic model
// predicts for the same deployment. Every delivery here crossed the real
// stack — control frames on the wire, pilot measurement, reallocation,
// beamspot superposition in the waveform PHY, ARQ — so agreement with the
// closed-form prediction ties the mechanistic and analytic halves of the
// repo together.
func TestConformancePerRXGoodput(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	const (
		rounds      = 3
		framesPerRX = 6
		budget      = units.Watts(1.19)
	)
	policy := alloc.Heuristic{Kappa: 1.3, AllowPartial: true}

	res, err := RunContext(context.Background(), Config{
		Setup:            scenario.Default(),
		Trajectories:     asyncTrajectories(),
		Policy:           policy,
		Budget:           budget,
		Sync:             clock.MethodNLOSVLC,
		Rounds:           rounds,
		FramesPerRX:      framesPerRX,
		MeasurementNoise: 0.02,
		Seed:             21,
		Timeout:          90 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Analytic prediction for the same static deployment: allocate with the
	// same policy and budget, convert each receiver's SINR to a frame error
	// rate at the data phase's bandwidth-time product, and fold in the ARQ's
	// two attempts.
	set := scenario.Default()
	env := set.Env(scenario.Scenario3.RXPositions(), nil)
	swings, err := policy.Allocate(env, budget)
	if err != nil {
		t.Fatal(err)
	}
	ev := alloc.Evaluate(env, swings)
	payloadLen := len(fmt.Sprintf("round %d frame %d for rx %d", rounds-1, framesPerRX-1, env.H.M-1))

	expected := float64(rounds * framesPerRX)
	for rx, sinr := range ev.SINR {
		per := channel.FramePER(sinr, payloadLen, 5)
		predicted := 1 - per*per // delivered within MaxAttempts=2
		observed := float64(res.DeliveredPerRX[rx]) / expected

		// The waveform PHY adds effects the closed-form model ignores
		// (timing offsets, finite preamble correlation), so the tolerance
		// is generous — but a starved or collapsed receiver cannot hide.
		if math.Abs(observed-predicted) > 0.30 {
			t.Errorf("RX %d: delivered %.0f%% of frames, analytic model predicts %.0f%% (PER %.3f)",
				rx, 100*observed, 100*predicted, per)
		}
		if per < 0.05 && observed < 0.5 {
			t.Errorf("RX %d: near-clean predicted channel (PER %.3f) but only %d/%d frames arrived",
				rx, per, res.DeliveredPerRX[rx], rounds*framesPerRX)
		}
	}
	sum := 0
	for _, c := range res.DeliveredPerRX {
		sum += c
	}
	if sum != res.Delivered {
		t.Errorf("per-RX counts sum to %d, total Delivered is %d", sum, res.Delivered)
	}
}

// eightFailures is the acceptance workload: all four anchor transmitters
// (the best server of each receiver) plus four of their strongest
// neighbours fail simultaneously at t=2 s.
func eightFailures() (*chaos.Schedule, []int) {
	txs := append(append([]int(nil), scenario.AnchorTXs...), 8, 14, 20, 21)
	s := chaos.NewSchedule()
	for _, tx := range txs {
		s.TXFail(2, tx)
	}
	return s, txs
}

// TestChaosEightTXFailuresRecoverInOneEpoch is the fault-injection layer's
// acceptance test on the asynchronous runtime: killing 8 of 36 transmitters
// mid-run — including every receiver's best server — must cause zero
// receiver starvation, with the controller's plan re-converging on the
// survivors within one control epoch and the health tracker confirming all
// eight dead.
func TestChaosEightTXFailuresRecoverInOneEpoch(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	schedule, txs := eightFailures()
	res, err := RunContext(context.Background(), Config{
		Setup:            scenario.Default(),
		Trajectories:     asyncTrajectories(),
		Budget:           1.19,
		Sync:             clock.MethodNLOSVLC,
		Rounds:           5,
		RoundDuration:    1,
		FramesPerRX:      3,
		MeasurementNoise: 0.02,
		Seed:             6,
		Chaos:            schedule,
		Timeout:          120 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 5 {
		t.Fatalf("%d rounds", len(res.Rounds))
	}
	for _, r := range res.Rounds {
		// Graceful degradation: nobody starves, service never stops.
		if r.StarvedRXs != 0 {
			t.Errorf("round %d: %d receivers starved", r.Round, r.StarvedRXs)
		}
		if r.FramesAckd == 0 {
			t.Errorf("round %d: service stopped (no frames acknowledged)", r.Round)
		}
		switch {
		case r.Round == 2 && r.ChaosEvents != len(txs):
			t.Errorf("round 2 injected %d events, want %d", r.ChaosEvents, len(txs))
		case r.Round != 2 && r.ChaosEvents != 0:
			t.Errorf("round %d injected %d stray events", r.Round, r.ChaosEvents)
		}
	}
	// Detection: stale after the failure epoch, dead (all 8) one epoch later,
	// and still dead at the end.
	if got := res.Rounds[4].DeadTXs; got != len(txs) {
		t.Errorf("final round classifies %d TXs dead, want %d", got, len(txs))
	}
	if got := res.Rounds[1].DeadTXs; got != 0 {
		t.Errorf("pre-failure round already had %d dead TXs", got)
	}
	if res.Trace.Len() != len(txs) {
		t.Errorf("trace recorded %d events, want %d", res.Trace.Len(), len(txs))
	}
}

// TestChaosTraceDeterministicAcrossRuns pins the async runtime's
// reproducibility contract: the applied-event trace depends only on the
// schedule and virtual time, never on goroutine scheduling, so two
// identically-configured runs produce byte-identical traces.
func TestChaosTraceDeterministicAcrossRuns(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	schedule, err := chaos.Parse("0:txfail:7;1:rxblock:0:0.2;2:txrecover:7;2:rxunblock:0")
	if err != nil {
		t.Fatal(err)
	}
	run := func() []byte {
		res, err := RunContext(context.Background(), Config{
			Setup:            scenario.Default(),
			Trajectories:     asyncTrajectories(),
			Budget:           1.19,
			Sync:             clock.MethodNLOSVLC,
			Rounds:           3,
			RoundDuration:    1,
			FramesPerRX:      2,
			MeasurementNoise: 0.02,
			Seed:             9,
			Chaos:            schedule,
			Timeout:          60 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Trace.Bytes()
	}
	first, second := run(), run()
	if !bytes.Equal(first, second) {
		t.Errorf("traces diverged between identical runs:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
	want := "round 0 t=0 0:txfail:7\nround 1 t=1 1:rxblock:0:0.2\nround 2 t=2 2:txrecover:7\nround 2 t=2 2:rxunblock:0\n"
	if string(first) != want {
		t.Errorf("trace bytes:\n%s\nwant:\n%s", first, want)
	}
}

// TestChaosScheduleValidatedUpFront: a schedule targeting nodes outside the
// deployment is rejected before any goroutine spawns.
func TestChaosScheduleValidatedUpFront(t *testing.T) {
	schedule := chaos.NewSchedule().TXFail(1, 99)
	_, err := RunContext(context.Background(), Config{
		Setup:        scenario.Default(),
		Trajectories: asyncTrajectories(),
		Budget:       1.19,
		Rounds:       1,
		Chaos:        schedule,
		Timeout:      10 * time.Second,
	})
	if err == nil {
		t.Fatal("out-of-range chaos target accepted")
	}
}
