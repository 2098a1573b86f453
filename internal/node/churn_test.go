package node

import (
	"bytes"
	"context"
	"testing"
	"time"

	"densevlc/internal/channel"
	"densevlc/internal/chaos"
	"densevlc/internal/clock"
	"densevlc/internal/mobility"
	"densevlc/internal/scenario"
	"densevlc/internal/stats"
	"densevlc/internal/testutil"
	"densevlc/internal/transport"
	"densevlc/internal/units"
	"densevlc/internal/workload"
)

func churnSpec() *workload.Spec {
	sp := workload.DefaultSpec()
	sp.ArrivalRate = 2 // population builds within the first rounds
	sp.MeanDwell = 10
	sp.Fleet = 4
	return &sp
}

// churnConfig is the churn tests' deployment: the paper room with a
// workload-driven fleet over the in-memory transport.
func churnConfig(sp *workload.Spec, rounds int, seed int64) Config {
	return Config{
		Setup:         scenario.Default(),
		Workload:      sp,
		Budget:        1.19,
		Sync:          clock.MethodNLOSVLC,
		Rounds:        rounds,
		RoundDuration: 1,
		FramesPerRX:   2,
		Seed:          seed,
		AckTimeout:    300 * time.Millisecond,
		Timeout:       60 * time.Second,
	}
}

// standaloneEngine steps a workload engine outside the runtime the way
// RunContext does (same spec, the first split of the seed's run stream, 1 s
// rounds) and returns its per-round stats, per-round slot occupancy and
// trace.
func standaloneEngine(t *testing.T, sp *workload.Spec, seed int64, rounds int) ([]workload.StepStats, [][]bool, []byte) {
	t.Helper()
	e, err := workload.NewEngine(*sp, scenario.Default(), 1.19, stats.SplitRand(stats.NewRand(seed)))
	if err != nil {
		t.Fatal(err)
	}
	var steps []workload.StepStats
	var occ [][]bool
	for r := 0; r < rounds; r++ {
		steps = append(steps, e.Step(units.Seconds(r), 1))
		occ = append(occ, e.ActiveMask(nil))
	}
	return steps, occ, e.TraceBytes()
}

// TestChurnRunDeliversUnderChurn is the end-to-end churn exercise: the full
// goroutine-per-node runtime under a live workload engine — arrivals light
// up photodiodes, the real pilot/report path carries their channels, the
// allocator serves them, and payload frames land.
func TestChurnRunDeliversUnderChurn(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	cfg := churnConfig(churnSpec(), 6, 3)
	cfg.FramesPerRX = 4
	cfg.MeasurementNoise = 0.02
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 6 {
		t.Fatalf("%d rounds", len(res.Rounds))
	}
	population := 0
	for _, r := range res.Rounds {
		if r.Churn.Step.Population > population {
			population = r.Churn.Step.Population
		}
	}
	if population == 0 {
		t.Fatal("no arrivals in 6 rounds at rate 2: the run exercised nothing")
	}
	decisions := 0
	for _, r := range res.Rounds {
		if !r.ReportsOK {
			t.Errorf("round %d: reports incomplete", r.Round)
		}
		if r.DecisionTime > 0 {
			decisions++
		}
	}
	if decisions == 0 {
		t.Error("no round recorded a positive decision time")
	}
	if res.Delivered == 0 {
		t.Error("no payloads delivered under churn")
	}
	if len(res.WorkloadTrace) == 0 {
		t.Error("empty workload trace")
	}
}

// TestChurnRunTraceDeterministic: the engine's churn trace is isolated from
// the async runtime's scheduling noise — same seed, byte-identical trace
// and per-round population stats, regardless of goroutine interleaving, and
// both equal to the same engine stepped outside the runtime.
func TestChurnRunTraceDeterministic(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	run := func() *Result {
		res, err := RunContext(context.Background(), churnConfig(churnSpec(), 3, 8))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !bytes.Equal(a.WorkloadTrace, b.WorkloadTrace) {
		t.Fatalf("traces diverged:\n%s\nvs\n%s", a.WorkloadTrace, b.WorkloadTrace)
	}
	for k := range a.Rounds {
		if as, bs := a.Rounds[k].Churn.Step, b.Rounds[k].Churn.Step; as != bs {
			t.Fatalf("step %d: %+v vs %+v", k, as, bs)
		}
	}
	steps, _, trace := standaloneEngine(t, churnSpec(), 8, 3)
	if !bytes.Equal(a.WorkloadTrace, trace) {
		t.Fatalf("runtime trace differs from the standalone engine's:\n%s\nvs\n%s", a.WorkloadTrace, trace)
	}
	for k := range steps {
		if got := a.Rounds[k].Churn.Step; got != steps[k] {
			t.Fatalf("step %d: runtime %+v, standalone %+v", k, got, steps[k])
		}
	}
}

// TestChurnRunRejectsInvalidWorkload: spec validation, and a workload
// combined with fixed trajectories, fail before any goroutine spawns.
func TestChurnRunRejectsInvalidWorkload(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	sp := churnSpec()
	sp.Fleet = 0
	if _, err := RunContext(context.Background(), churnConfig(sp, 1, 1)); err == nil {
		t.Fatal("fleet 0 accepted")
	}
	cfg := churnConfig(churnSpec(), 1, 1)
	cfg.Trajectories = []mobility.Trajectory{mobility.Static{Pos: scenario.Fig7Instance()[0]}}
	if _, err := RunContext(context.Background(), cfg); err == nil {
		t.Fatal("Workload together with Trajectories accepted")
	}
}

// TestRunContextWireLimits: a fleet wider than the one-byte RX index of
// reports and acks is refused before anything is built; the widest fleet
// that fits runs with every round's reports complete.
func TestRunContextWireLimits(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	sp := churnSpec()
	sp.Fleet = 256
	if _, err := RunContext(context.Background(), churnConfig(sp, 1, 1)); err == nil {
		t.Fatal("fleet 256 accepted")
	}
	sp = churnSpec()
	sp.Fleet = 255
	res, err := RunContext(context.Background(), churnConfig(sp, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rounds {
		if !r.ReportsOK {
			t.Errorf("round %d: reports incomplete with 255 slots", r.Round)
		}
	}
}

// TestAsyncRunOverUDPWideFleet: the widest fleet the wire allows, 255
// receiver slots, runs asynchronously over UDP loopback with every round's
// reports complete. The slots report at once, so the controller's socket
// must hold a fleet's reports; one the kernel dropped would cost its round
// the report deadline and its ReportsOK flag.
func TestAsyncRunOverUDPWideFleet(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	udp, err := transport.NewUDPNetwork()
	if err != nil {
		t.Fatal(err)
	}
	sp := churnSpec()
	sp.Fleet = 255
	cfg := churnConfig(sp, 3, 1)
	cfg.Network = udp
	cfg.Timeout = 10 * time.Second
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rounds {
		if !r.ReportsOK {
			t.Errorf("round %d: reports incomplete over UDP with 255 slots", r.Round)
		}
	}
}

// TestChurnRunHonoursContext: a pre-cancelled context unwinds the whole
// deployment promptly and leaks nothing.
func TestChurnRunHonoursContext(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := churnConfig(churnSpec(), 50, 1)
	cfg.FramesPerRX = 0
	cfg.AckTimeout = 0
	_, err := RunContext(ctx, cfg)
	_ = err // cancellation may surface as nil (0 rounds) or context.Canceled
}

// TestChurnRunDefaults: zero Timeout and RoundDuration fall back to the
// documented defaults (60 s bound, 1 s rounds) instead of an instant
// deadline or a frozen clock.
func TestChurnRunDefaults(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	cfg := churnConfig(churnSpec(), 1, 5)
	cfg.RoundDuration = 0
	cfg.Timeout = 0
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 1 || res.Rounds[0].Churn == nil {
		t.Fatalf("%d rounds, want 1 with its churn step", len(res.Rounds))
	}
}

// TestHubOccupancyComposesWithAttenuation pins the medium's rule: slot
// occupancy and chaos attenuation multiply. Marking occupancy never clears
// a blockage, and a vacant slot is dark however clear its attenuation.
func TestHubOccupancyComposesWithAttenuation(t *testing.T) {
	md := scenario.NewMedium(scenario.Default(), scenario.Fig7Instance(), clock.MethodNLOSVLC, 0)
	hub := NewHub(md, nil, 1)
	var clear, got *channel.Matrix
	hub.do(func(md *scenario.Medium) { clear = md.Truth().H })

	// An unblock lands on the vacant slot at t=1.
	injector := chaos.NewInjector(chaos.NewSchedule().RXBlock(0, 0, 0.1).RXUnblock(1, 1))
	for round := 0; round < 2; round++ {
		hub.do(func(md *scenario.Medium) {
			if n := injector.Apply(round, units.Seconds(round), md.Faults()); n != 1 {
				t.Fatalf("round %d applied %d events, want 1", round, n)
			}
			md.SetOccupied([]bool{true, false, true, true})
		})
	}
	hub.do(func(md *scenario.Medium) { got = md.Truth().H })
	for j := 0; j < got.N; j++ {
		if want := clear.H[j][0] * 0.1; got.H[j][0] != want {
			t.Fatalf("TX %d → blocked RX 0: gain %g, want %g (blockage lost to an occupancy update)", j, got.H[j][0], want)
		}
		if got.H[j][1] != 0 {
			t.Fatalf("TX %d → vacant RX 1: gain %g, want dark", j, got.H[j][1])
		}
		if got.H[j][2] != clear.H[j][2] {
			t.Fatalf("TX %d → occupied RX 2: gain %g, want %g", j, got.H[j][2], clear.H[j][2])
		}
	}
}

// TestChurnComposesWithChaos runs the workload and a chaos schedule
// together through RunContext. An opaque rxblock lands on a slot occupied
// for the rest of the run, and an rxunblock lands on a slot the moment its
// user has left. Every round, the receivers the plan leaves unserved must
// be exactly the vacant slots plus the blocked one: the block survives every
// later churn step, and the vacated slot stays dark despite its chaos
// unblock. Two runs give byte-identical chaos and workload traces.
func TestChurnComposesWithChaos(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	const rounds, seed = 8, 4
	sp := churnSpec()
	sp.MeanDwell = 3
	_, occ, _ := standaloneEngine(t, sp, seed, rounds)

	// The blocked slot: occupied from round 1 to the end. The vacated
	// slot: occupied in some round r-1 ≥ 1, vacant in round r.
	blocked, vacated, vacatedAt := -1, -1, -1
	for i := 0; i < sp.Fleet && blocked < 0; i++ {
		stays := true
		for r := 1; r < rounds; r++ {
			stays = stays && occ[r][i]
		}
		if stays {
			blocked = i
		}
	}
	for r := 2; r < rounds && vacated < 0; r++ {
		for i := 0; i < sp.Fleet; i++ {
			if i != blocked && occ[r-1][i] && !occ[r][i] {
				vacated, vacatedAt = i, r
				break
			}
		}
	}
	if blocked < 0 || vacated < 0 {
		t.Fatalf("seed %d gives no long-lived and no departing slot: %v", seed, occ)
	}
	schedule := chaos.NewSchedule().
		RXBlock(1, blocked, 0).
		RXUnblock(units.Seconds(vacatedAt), vacated)

	run := func() *Result {
		cfg := churnConfig(sp, rounds, seed)
		cfg.Chaos = schedule
		res, err := RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run()
	if len(a.Rounds) != rounds {
		t.Fatalf("%d rounds", len(a.Rounds))
	}
	for r, rs := range a.Rounds {
		want := 0
		for i, on := range occ[r] {
			if !on || (i == blocked && r >= 1) {
				want++
			}
		}
		if !rs.ReportsOK {
			t.Errorf("round %d: reports incomplete", r)
		}
		if rs.StarvedRXs != want {
			t.Errorf("round %d: %d receivers unserved, want %d (occupancy %v, slot %d blocked from round 1, slot %d unblocked while vacant at round %d)",
				r, rs.StarvedRXs, want, occ[r], blocked, vacated, vacatedAt)
		}
	}
	if a.DeliveredPerRX[blocked] > 2 {
		t.Errorf("blocked slot %d received %d payloads; at most round 0's 2 frames may land", blocked, a.DeliveredPerRX[blocked])
	}

	b := run()
	if !bytes.Equal(a.Trace.Bytes(), b.Trace.Bytes()) {
		t.Fatalf("chaos traces diverged:\n%s\nvs\n%s", a.Trace.Bytes(), b.Trace.Bytes())
	}
	if !bytes.Equal(a.WorkloadTrace, b.WorkloadTrace) {
		t.Fatalf("workload traces diverged:\n%s\nvs\n%s", a.WorkloadTrace, b.WorkloadTrace)
	}
}
