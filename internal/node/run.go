package node

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"densevlc/internal/alloc"
	"densevlc/internal/chaos"
	"densevlc/internal/clock"
	"densevlc/internal/geom"
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
	// Network carries the control plane; nil selects in-memory. The run
	// closes it on exit.
	Network transport.Network
	// Rounds to run (zero: 5), each advancing the hub's virtual clock by
	// RoundDuration (zero: 1 s).
	Rounds        int
	RoundDuration units.Seconds
	// FramesPerRX is the data frames per receiver per round (zero: 4).
	// Under a Workload it caps each user's per-round demand instead (zero:
	// no cap).
	FramesPerRX int
	// AckTimeout bounds the wait for data acknowledgements per ARQ pass
	// (zero: 2 s). The in-memory transport delivers in microseconds, so
	// tests and benchmarks tighten it.
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

// RunContext spawns the controller, every transmitter and every receiver as
// goroutines over the transport, runs the configured number of rounds, and
// shuts everything down. Cancelling ctx aborts the round loop and tears the
// deployment down, in addition to the cfg.Timeout bound.
//
// Under cfg.Workload every fleet slot is a receiver goroutine. The engine
// steps on the controller goroutine at each round boundary
// (workload.Engine is single-goroutine), and a free slot's photodiode is
// dark, so the real pilot/report path delivers its dark channel and the
// allocator withdraws its swing. Slot vacancy and chaos blockage are
// separate state of the medium: a chaos rxblock on an occupied slot
// survives churn steps, and a vacated slot stays dark whatever its chaos
// attenuation.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Policy == nil {
		cfg.Policy = alloc.Heuristic{Kappa: 1.3, AllowPartial: true}
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 5
	}
	if cfg.RoundDuration <= 0 {
		cfg.RoundDuration = 1
	}
	if cfg.FramesPerRX <= 0 && cfg.Workload == nil {
		cfg.FramesPerRX = 4
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 2 * time.Second
	}
	n := cfg.Setup.Grid.N()
	m := len(cfg.Trajectories)
	if cfg.Workload != nil {
		m = cfg.Workload.Fleet
	}
	if err := mac.CheckWireLimits(n, m); err != nil {
		return nil, err
	}
	if cfg.MeasurementNoise < 0 {
		return nil, errors.New("node: negative measurement noise")
	}
	if cfg.Budget < 0 {
		return nil, errors.New("node: negative budget")
	}
	var engine *workload.Engine
	if cfg.Workload != nil {
		if len(cfg.Trajectories) != 0 {
			return nil, errors.New("node: Workload and Trajectories are mutually exclusive")
		}
		var err error
		if engine, err = workload.NewEngine(*cfg.Workload, cfg.Setup, cfg.Budget, stats.NewRand(cfg.Seed)); err != nil {
			return nil, err
		}
	}
	if m == 0 {
		return nil, errors.New("node: no receivers")
	}
	if err := cfg.Chaos.Validate(n, m); err != nil {
		return nil, err
	}

	net := cfg.Network
	if net == nil {
		net = transport.NewMemNetwork()
	}
	defer func() { _ = net.Close() }() // teardown; transport errors have no recovery path here

	// The controller loop places the receivers before each round's pilots.
	md := scenario.NewMedium(cfg.Setup, make([]geom.Vec, m), cfg.Sync, cfg.MeasurementNoise)
	hub := NewHub(md, cfg.Seed)

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
		spawn(func() error { return runTX(ctx, id, link, hub) })
	}

	res := &Result{DeliveredPerRX: make([]int, m)}
	for i := 0; i < m; i++ {
		link, err := net.NewNode()
		if err != nil {
			cancel()
			wg.Wait()
			return nil, fmt.Errorf("node: RX %d link: %w", i, err)
		}
		id, delivered := i, &res.DeliveredPerRX[i]
		spawn(func() error { return runRX(ctx, id, n, link, hub, delivered) })
	}

	ctrl := mac.NewController(n, m, cfg.Policy, cfg.Budget, cfg.Setup.Params, cfg.Setup.LED)
	ctrl.Trigger = cfg.Trigger
	runErr := runController(ctx, cfg, net.Controller(), hub, ctrl, engine, res)

	// Stop the node goroutines; once they have exited, their delivery
	// counters are final.
	cancel()
	wg.Wait()

	if engine != nil {
		res.WorkloadTrace = engine.TraceBytes()
	}
	for _, d := range res.DeliveredPerRX {
		res.Delivered += d
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
