package node

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"densevlc/internal/alloc"
	"densevlc/internal/channel"
	"densevlc/internal/chaos"
	"densevlc/internal/clock"
	"densevlc/internal/mac"
	"densevlc/internal/mobility"
	"densevlc/internal/scenario"
	"densevlc/internal/stats"
	"densevlc/internal/transport"
	"densevlc/internal/units"
	"densevlc/internal/workload"
)

// Config wires a full asynchronous deployment.
type Config struct {
	Setup        scenario.Setup
	Trajectories []mobility.Trajectory
	// Workload, when non-nil, replaces Trajectories with a churn-driven
	// fleet: Fleet tenancy slots whose arrivals, dwell, motion and per-user
	// traffic come from a workload.Engine seeded by Seed. Mutually
	// exclusive with Trajectories.
	Workload *workload.Spec
	Policy   alloc.Policy
	Budget   units.Watts
	Sync     clock.Method
	Blocker  channel.Blocker
	// Network carries the control plane; nil selects in-memory. The run
	// closes it on exit.
	Network transport.Network
	// Controller loop parameters. Under a Workload, FramesPerRX caps each
	// user's per-round demand (zero: no cap).
	Rounds        int
	RoundDuration units.Seconds
	FramesPerRX   int
	// AckTimeout bounds the wait for data acknowledgements per ARQ pass
	// (zero: the ControllerConfig default). The in-memory transport
	// delivers in microseconds, so tests and benchmarks tighten it.
	AckTimeout time.Duration
	// Trigger enables the controller's event-driven re-allocation gate
	// (zero value: re-solve every round).
	Trigger mac.Trigger
	// MeasurementNoise is the channel-estimate relative std.
	MeasurementNoise float64
	Seed             int64
	// Timeout bounds the whole run (zero: 60 s).
	Timeout time.Duration
	// Chaos optionally schedules fault events (TX failures, blockage,
	// clock steps) replayed against the hub at round boundaries.
	Chaos *chaos.Schedule
}

// Result is the outcome of an asynchronous run.
type Result struct {
	Rounds []RoundStats
	// Delivered counts application payloads handed to receivers.
	Delivered int
	// DeliveredPerRX breaks Delivered down by receiver.
	DeliveredPerRX []int
	// Trace records the chaos events applied during the run (empty without
	// a schedule). Its bytes are deterministic for a given seed+schedule.
	Trace *chaos.Trace
	// Steps is the workload engine's per-round population summary, index-
	// aligned with Rounds (nil without Config.Workload).
	Steps []workload.StepStats
	// WorkloadTrace is the engine's canonical churn event log (nil without
	// Config.Workload): byte-identical across runs with the same seed and
	// spec.
	WorkloadTrace []byte
}

// Run spawns the controller, every transmitter and every receiver as
// goroutines over the transport, runs the configured number of rounds, and
// shuts everything down. It is RunContext with a background context — the
// run is still bounded by cfg.Timeout, but cannot be cancelled early.
func Run(cfg Config) (*Result, error) {
	//lint:ignore ctxflow context-free convenience entry point for mains; RunContext accepts the caller's context
	return RunContext(context.Background(), cfg)
}

// RunContext is Run under a caller-supplied context: cancelling ctx aborts
// the round loop and tears the deployment down, in addition to the
// cfg.Timeout bound.
//
// Under cfg.Workload every fleet slot is a receiver goroutine. The engine
// steps on the controller goroutine at each round boundary
// (workload.Engine is single-goroutine), and a free slot's photodiode is
// dark, so the real pilot/report path delivers its dark channel and the
// allocator withdraws its swing. Slot vacancy and chaos blockage are
// separate hub state: a chaos rxblock on an occupied slot survives churn
// steps, and a vacated slot stays dark whatever its chaos attenuation.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Policy == nil {
		cfg.Policy = alloc.Heuristic{Kappa: 1.3, AllowPartial: true}
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	traj := cfg.Trajectories
	var engine *workload.Engine
	if cfg.Workload != nil {
		if len(traj) != 0 {
			return nil, errors.New("node: Workload and Trajectories are mutually exclusive")
		}
		var err error
		if engine, err = workload.NewEngine(*cfg.Workload, cfg.Setup, cfg.Budget, stats.NewRand(cfg.Seed)); err != nil {
			return nil, err
		}
		traj = engine.Trajectories()
	}
	if len(traj) == 0 {
		return nil, errors.New("node: no receivers")
	}
	n := cfg.Setup.Grid.N()
	m := len(traj)
	if err := cfg.Chaos.Validate(n, m); err != nil {
		return nil, err
	}

	net := cfg.Network
	if net == nil {
		net = transport.NewMemNetwork()
	}
	defer func() { _ = net.Close() }() // teardown; transport errors have no recovery path here

	// Under a Workload the hub reads slot positions through the engine-
	// backed trajectories, always from the controller goroutine
	// (AdvanceTime, after BeforeRound), so the engine's single-goroutine
	// contract holds.
	hub := NewHub(cfg.Setup, traj, cfg.Blocker, cfg.Sync, cfg.MeasurementNoise, cfg.Seed)

	ctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
	defer cancel()

	var wg sync.WaitGroup
	errCh := make(chan error, n+m)
	spawn := func(f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f(); err != nil {
				select {
				case errCh <- err:
				default:
				}
			}
		}()
	}

	for j := 0; j < n; j++ {
		link, err := net.NewNode()
		if err != nil {
			cancel()
			wg.Wait()
			return nil, fmt.Errorf("node: TX %d link: %w", j, err)
		}
		id := j
		spawn(func() error { return RunTX(ctx, id, link, hub) })
	}

	delivered := make(chan Delivery, 1024)
	for i := 0; i < m; i++ {
		link, err := net.NewNode()
		if err != nil {
			cancel()
			wg.Wait()
			return nil, fmt.Errorf("node: RX %d link: %w", i, err)
		}
		id := i
		spawn(func() error { return RunRX(ctx, id, n, link, hub, delivered) })
	}

	ctrl := mac.NewController(n, m, cfg.Policy, cfg.Budget, cfg.Setup.Params, cfg.Setup.LED)
	ctrl.Trigger = cfg.Trigger
	injector := chaos.NewInjector(cfg.Chaos)
	ccfg := ControllerConfig{
		N: n, M: m,
		Rounds:        cfg.Rounds,
		RoundDuration: cfg.RoundDuration,
		FramesPerRX:   cfg.FramesPerRX,
		AckTimeout:    cfg.AckTimeout,
		Injector:      injector,
	}
	var steps []workload.StepStats
	if engine != nil {
		dt := cfg.RoundDuration
		if dt <= 0 {
			dt = 1
		}
		var roundT units.Seconds
		occupied := make([]bool, m)
		ccfg.BeforeRound = func(_ int, t units.Seconds) {
			roundT = t
			steps = append(steps, engine.Step(t, dt))
			hub.setOccupied(engine.ActiveMask(occupied))
		}
		ccfg.Demand = func(rx int) int {
			want := engine.Demand(rx, roundT)
			if cfg.FramesPerRX > 0 && want > cfg.FramesPerRX {
				want = cfg.FramesPerRX
			}
			return want
		}
	}
	rounds, runErr := RunController(ctx, net.Controller(), hub, ctrl, ccfg)

	// Stop the node goroutines and collect.
	cancel()
	wg.Wait()
	close(delivered)

	res := &Result{Rounds: rounds, DeliveredPerRX: make([]int, m), Trace: injector.Trace(), Steps: steps}
	if engine != nil {
		res.WorkloadTrace = engine.TraceBytes()
	}
	for d := range delivered {
		res.Delivered++
		if d.RX >= 0 && d.RX < m {
			res.DeliveredPerRX[d.RX]++
		}
	}
	if runErr != nil && !errors.Is(runErr, context.Canceled) {
		return res, runErr
	}
	select {
	case err := <-errCh:
		return res, err
	default:
	}
	return res, nil
}
