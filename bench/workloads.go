package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"densevlc/internal/alloc"
	"densevlc/internal/clock"
	"densevlc/internal/cluster"
	"densevlc/internal/frame"
	"densevlc/internal/geom"
	"densevlc/internal/mac"
	"densevlc/internal/mobility"
	"densevlc/internal/node"
	"densevlc/internal/scenario"
	"densevlc/internal/sim"
	"densevlc/internal/stats"
	"densevlc/internal/transport"
	"densevlc/internal/units"
	"densevlc/internal/workload"
)

// Settings shared by the workloads: the CLI's defaults for the paper room,
// and worker counts matched to the two cores the benchmark is sized for.
const (
	workers      = 2
	kappa        = 1.3
	roomBudget   = units.Watts(1.19)
	roomRXs      = 4
	wallMargin   = units.Meters(0.4)
	rxSpeed      = units.MetersPerSecond(0.25)
	reportNoise  = 0.02
	wireRoundMA  = 0.5  // the most a command's swing rounds up on the wire
	exactSlack   = 1e-9 // relative float slack of an exact budget check
	floorRows    = 15
	floorCols    = 16
	floorSlots   = 60
	asyncFrames  = 4
	epochSeconds = 1.0
)

// workloadDef is one benchmark workload: its warm-up length, its epoch
// rate on the reference machine (a 2-vCPU Xeon VM), which turns -seconds
// into a fixed epoch count, an upper bound on the spans one traced epoch
// records, and the function that runs it from construction to teardown.
type workloadDef struct {
	name, why     string
	warmup        int
	epochsPerSec  float64
	spansPerEpoch int
	run           func(ctx context.Context, p runParams) (*runOut, error)
}

var workloads = []workloadDef{
	{
		name:          "room-udp",
		why:           "the CLI's default sim.Run path over UDP loopback; multicast fan-out takes two thirds of the epoch and the solve under 1%",
		warmup:        50,
		epochsPerSec:  125,
		spansPerEpoch: 64,
		run:           func(ctx context.Context, p runParams) (*runOut, error) { return runRoom(p, false, true) },
	},
	{
		name:          "room-optimal",
		why:           "sim.Run with the paper's optimal solver in memory; the nonlinear solve takes four fifths of the epoch",
		warmup:        20,
		epochsPerSec:  75,
		spansPerEpoch: 64,
		run:           func(ctx context.Context, p runParams) (*runOut, error) { return runRoom(p, true, false) },
	},
	{
		name:          "floor-churn",
		why:           "mac.Controller on 240 TXs with 60 churning slots; report decode takes half the epoch and users arrive and leave every epoch",
		warmup:        60,
		epochsPerSec:  70,
		spansPerEpoch: 512,
		run:           runFloorChurn,
	},
	{
		name:          "room-async",
		why:           "node.RunContext, goroutine per node with the waveform PHY on the data plane; rounds lose no frames and are CPU-bound",
		warmup:        20,
		epochsPerSec:  55,
		spansPerEpoch: 160,
		run:           runAsync,
	},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// runParams is one execution: the seed, the epoch count including warm-up,
// the epoch clock and, when tracing, the tracer.
type runParams struct {
	seed   int64
	epochs int
	clock  *epochClock
	tr     *tracer
}

// runOut is what one execution yields, one entry per epoch.
type runOut struct {
	clock *epochClock
	// decision is the timed Reallocate on floor-churn and
	// RoundStats.DecisionTime on room-async. Inside sim.Run only the
	// policy's solve is visible, so the sim workloads take it from the
	// trace instead.
	decision []time.Duration
	mbps     []float64 // system throughput of the commanded plan against the true channel
	active   []float64 // communicating transmitters
	// failed marks epochs that violated a check; attempts and failures count
	// what failed_share counts on this workload.
	failed             []bool
	attempts, failures []int
	violations         []string

	rounds   []node.RoundStats
	steps    []workload.StepStats
	clusters []clusterStat
}

type clusterStat struct{ k, maxTXs int }

func (o *runOut) violate(epoch int, format string, args ...any) {
	o.failed[epoch] = true
	if len(o.violations) < 10 {
		o.violations = append(o.violations, fmt.Sprintf("epoch %d: ", epoch)+fmt.Sprintf(format, args...))
	}
}

func newRunOut(p runParams) *runOut {
	return &runOut{
		clock:    p.clock,
		mbps:     make([]float64, p.epochs),
		active:   make([]float64, p.epochs),
		failed:   make([]bool, p.epochs),
		attempts: make([]int, p.epochs),
		failures: make([]int, p.epochs),
	}
}

// roomSetup returns the paper room and the CLI's receivers: random waypoint
// at 0.25 m/s, 0.4 m off the walls.
func roomSetup(seed int64) (scenario.Setup, []mobility.Trajectory) {
	setup := scenario.Default()
	rng := stats.NewRand(seed)
	traj := make([]mobility.Trajectory, roomRXs)
	for i := range traj {
		traj[i] = mobility.NewRandomWaypoint(stats.SplitRand(rng), wallMargin, wallMargin,
			setup.Room.Width-wallMargin, setup.Room.Depth-wallMargin, 0, rxSpeed)
	}
	return setup, traj
}

// runRoom drives sim.Run on the paper room: the heuristic over UDP
// (room-udp) or the optimal solver in memory (room-optimal).
func runRoom(p runParams, optimal, udp bool) (*runOut, error) {
	setup, traj := roomSetup(p.seed)
	var policy alloc.Policy = alloc.Heuristic{Kappa: kappa, AllowPartial: true}
	if optimal {
		policy = alloc.Optimal{Workers: workers}
	}
	var net transport.Network = transport.NewMemNetwork()
	if udp {
		u, err := transport.NewUDPNetwork()
		if err != nil {
			return nil, err
		}
		net = u
	}
	if p.tr != nil {
		policy = timedPolicy{inner: policy, tr: p.tr}
	}
	res, err := sim.Run(sim.Config{
		Setup:            setup,
		Trajectories:     traj,
		Policy:           policy,
		Budget:           roomBudget,
		Sync:             clock.MethodNLOSVLC,
		Rounds:           p.epochs,
		RoundDuration:    epochSeconds,
		MeasurementNoise: reportNoise,
		FramesPerRound:   10,
		Network:          wrapNetwork(net, p.clock, p.tr),
		Seed:             p.seed,
	})
	if err != nil {
		return nil, err
	}
	if len(res.Rounds) != p.epochs || len(p.clock.ends) != p.epochs {
		return nil, fmt.Errorf("sim ran %d rounds with %d allocation frames, want %d", len(res.Rounds), len(p.clock.ends), p.epochs)
	}
	out := newRunOut(p)
	for k, r := range res.Rounds {
		out.mbps[k] = r.Eval.SumThroughput.Mbps()
		out.active[k] = float64(r.ActiveTXs)
		out.attempts[k] = 1
		if err := checkWirePlan(p.clock.frames[k], setup, roomBudget); err != nil {
			out.violate(k, "%v", err)
			out.failures[k] = 1
		}
	}
	return out, nil
}

// runAsync drives node.RunContext on the paper room with static receivers
// at the Fig. 7 instance.
func runAsync(ctx context.Context, p runParams) (*runOut, error) {
	setup := scenario.Default()
	var traj []mobility.Trajectory
	for _, pos := range scenario.Fig7Instance() {
		traj = append(traj, mobility.Static{Pos: pos})
	}
	var policy alloc.Policy = alloc.Heuristic{Kappa: kappa, AllowPartial: true}
	if p.tr != nil {
		policy = timedPolicy{inner: policy, tr: p.tr}
	}
	res, err := node.RunContext(ctx, node.Config{
		Setup:         setup,
		Trajectories:  traj,
		Policy:        policy,
		Budget:        roomBudget,
		Sync:          clock.MethodNLOSVLC,
		Network:       wrapNetwork(transport.NewMemNetwork(), p.clock, p.tr),
		Rounds:        p.epochs,
		RoundDuration: epochSeconds,
		FramesPerRX:   asyncFrames,
		Seed:          p.seed,
		Timeout:       childDeadline,
	})
	if err != nil {
		return nil, err
	}
	if len(res.Rounds) != p.epochs || len(p.clock.ends) != p.epochs {
		return nil, fmt.Errorf("node ran %d rounds with %d allocation frames, want %d", len(res.Rounds), len(p.clock.ends), p.epochs)
	}
	out := newRunOut(p)
	out.rounds = res.Rounds
	out.decision = make([]time.Duration, p.epochs)
	for k, r := range res.Rounds {
		out.decision[k] = r.DecisionTime
		out.mbps[k] = r.SystemThroughput.Mbps()
		out.active[k] = float64(r.ActiveTXs)
		offered := r.FramesSent - r.Retransmits
		out.attempts[k], out.failures[k] = offered, r.FramesFailed
		if err := checkWirePlan(p.clock.frames[k], setup, roomBudget); err != nil {
			out.violate(k, "%v", err)
		}
		if r.FramesAckd+r.FramesFailed != offered {
			out.violate(k, "%d acked + %d failed != %d offered", r.FramesAckd, r.FramesFailed, offered)
		}
		if r.FramesFailed > 0 || !r.ReportsOK {
			out.failed[k] = true
		}
	}
	return out, nil
}

// checkWirePlan decodes an allocation frame as the transmitters do and
// checks the commanded plan: no swing beyond the LED's maximum, and power
// within the budget once each command is granted the up-to-0.5 mA round-up
// of milliamp wire quantisation. (A fixed 1 mW slack is not enough: the
// optimal solver drives every active TX at a partial swing, and its
// rounded plans overshoot by up to 1.25 mW on the paper room.)
func checkWirePlan(wire []byte, setup scenario.Setup, budget units.Watts) error {
	d, _, err := frame.DecodeDownlink(wire)
	if err != nil {
		return err
	}
	a, err := mac.DecodeAllocation(d.MAC.Payload)
	if err != nil {
		return err
	}
	r := setup.Params.DynamicResistance.Ohms()
	maxMA := units.AmperesToMilliamperes(setup.LED.MaxSwing).MA() + wireRoundMA
	var power float64
	for _, c := range a.Commands {
		if c.RX < 0 || c.SwingMilliAmps == 0 {
			continue
		}
		ma := float64(c.SwingMilliAmps)
		if ma > maxMA {
			return fmt.Errorf("TX %d commanded %d mA beyond the LED's maximum swing", c.TX, c.SwingMilliAmps)
		}
		half := units.MilliamperesToAmperes(units.Milliamperes(ma-wireRoundMA)).A() / 2
		power += r * half * half
	}
	if power > budget.W()*(1+exactSlack) {
		return fmt.Errorf("commanded power %.6f W, less its rounding, exceeds the %.3f W budget", power, budget.W())
	}
	return nil
}

// runFloorChurn is the controller loop on the 240-TX floor, driven by the
// benchmark through mac.Controller with real report frames. The epoch ends
// when the allocation frame is serialised; the plan checks after it are the
// benchmark's own work and excluded from the epoch.
func runFloorChurn(ctx context.Context, p runParams) (*runOut, error) {
	setup := scenario.FloorGrid(floorRows, floorCols)
	n := setup.Grid.N()
	budget := units.Watts(1.19 / 4 * floorSlots)
	sp := workload.DefaultSpec()
	sp.ArrivalRate, sp.MeanDwell, sp.Fleet, sp.Speed = 4, 12, floorSlots, rxSpeed
	rng := stats.NewRand(p.seed)
	engine, err := workload.NewEngine(sp, setup, budget, stats.SplitRand(rng))
	if err != nil {
		return nil, err
	}
	noise := stats.SplitRand(rng)
	start := make([]geom.Vec, floorSlots)
	for i := range start {
		start[i] = engine.Position(i, 0)
	}
	mv := setup.NewMover(start, nil)
	truth := &alloc.Env{Params: setup.Params, H: mv.Env().H.Clone(), LED: setup.LED}

	var policy alloc.Policy = alloc.Heuristic{Kappa: kappa, AllowPartial: true}
	if p.tr != nil {
		policy = timedPolicy{inner: policy, tr: p.tr}
	}
	ctrl := mac.NewController(n, floorSlots, policy, budget, setup.Params, setup.LED)
	ctrl.Trigger = mac.Trigger{RelDelta: 0.05, MaxStaleEpochs: 16}
	ctrl.EnableSharding(cluster.Spec{Mode: cluster.ModeThreshold, Threshold: 0.5}, workers)
	rxs := make([]*mac.RXNode, floorSlots)
	for i := range rxs {
		rxs[i] = mac.NewRXNode(i, n)
	}

	out := newRunOut(p)
	out.decision = make([]time.Duration, p.epochs)
	out.steps = make([]workload.StepStats, p.epochs)
	out.clusters = make([]clusterStat, p.epochs)
	tr := p.tr
	for e := 0; e < p.epochs; e++ {
		t := units.Seconds(float64(e) * epochSeconds)
		tok := tr.begin()
		out.steps[e] = engine.Step(t, epochSeconds)
		tr.end(spanStep, tok, 1)
		for s := 0; s < floorSlots; s++ {
			if engine.Active(s) {
				tok := tr.begin()
				mv.MoveRX(s, engine.Position(s, t))
				tr.end(spanMoveRX, tok, 1)
			}
		}
		tok = tr.begin()
		for j, row := range mv.Env().H.H {
			copy(truth.H.H[j], row)
		}
		engine.Mask(truth.H)
		tr.end(spanMask, tok, 1)

		for s, rx := range rxs {
			if err := report(ctrl, rx, truth, s, noise, tr); err != nil {
				return nil, fmt.Errorf("epoch %d slot %d: %w", e, s, err)
			}
		}

		tok = tr.begin()
		tr.solvesUnder(tok)
		d0 := time.Now()
		plan, err := ctrl.ReallocateContext(ctx)
		out.decision[e] = time.Since(d0)
		tr.end(spanReallocate, tok, 1)
		if err != nil {
			return nil, fmt.Errorf("epoch %d: %w", e, err)
		}
		tok = tr.begin()
		af, err := ctrl.AllocationFrame(plan)
		var wire []byte
		if err == nil {
			wire, err = af.Serialize()
		}
		tr.end(spanAllocFrame, tok, len(wire))
		if err != nil {
			return nil, fmt.Errorf("epoch %d: %w", e, err)
		}
		p.clock.tick(wire)
		tr.endEpoch()

		checkFloorPlan(out, e, plan, engine, truth, budget)
		c := ctrl.Clustering()
		out.clusters[e] = clusterStat{k: c.K(), maxTXs: c.MaxTXs()}
		p.clock.begin()
		tr.restartEpoch()
	}
	return out, nil
}

// report is one slot's uplink: the pilot measurements with estimator noise,
// the report frame through the codec, and the controller's ingest.
func report(ctrl *mac.Controller, rx *mac.RXNode, truth *alloc.Env, slot int, noise *rand.Rand, tr *tracer) error {
	tok := tr.begin()
	for j, row := range truth.H.H {
		if err := rx.RecordMeasurement(j, row[slot]*(1+reportNoise*noise.NormFloat64())); err != nil {
			return err
		}
	}
	tr.end(spanRecord, tok, truth.H.N)
	tok = tr.begin()
	rep := rx.BuildReport()
	tr.end(spanBuildReport, tok, 1)
	tok = tr.begin()
	raw, err := frame.SerializeMAC(rep)
	tr.end(spanEncodeReport, tok, len(raw))
	if err != nil {
		return err
	}
	tok = tr.begin()
	m, _, _, err := frame.DecodeMAC(raw)
	tr.end(spanDecodeReport, tok, len(raw))
	if err != nil {
		return err
	}
	tok = tr.begin()
	err = ctrl.HandleUplink(m)
	tr.end(spanHandleUplink, tok, 1)
	return err
}

// checkFloorPlan checks the controller's plan exactly: power within the
// budget, no swing toward a free slot. It scores the plan against the
// noise-free channel and counts live slots left without a serving set.
func checkFloorPlan(out *runOut, e int, plan mac.Plan, engine *workload.Engine, truth *alloc.Env, budget units.Watts) {
	if p := plan.Swings.CommPower(truth.Params.DynamicResistance); p.W() > budget.W()*(1+exactSlack) {
		out.violate(e, "plan power %.9f W exceeds the %.4f W budget", p.W(), budget.W())
	}
	for s := 0; s < floorSlots; s++ {
		if engine.Active(s) {
			out.attempts[e]++
			if len(plan.ServedBy[s]) == 0 {
				out.failures[e]++
			}
			continue
		}
		for j := range plan.Swings {
			if plan.Swings[j][s] > 0 {
				out.violate(e, "free slot %d holds swing from TX %d", s, j)
				break
			}
		}
	}
	active := 0
	for _, row := range plan.Swings {
		for _, sw := range row {
			if sw > 0 {
				active++
				break
			}
		}
	}
	out.active[e] = float64(active)
	out.mbps[e] = alloc.Evaluate(truth, plan.Swings).SumThroughput.Mbps()
}
