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
	"densevlc/internal/mac"
	"densevlc/internal/mobility"
	"densevlc/internal/scenario"
	"densevlc/internal/sim"
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
	// traffic come from a workload.Engine on a stream split off Seed's, as
	// in the synchronous engine. Mutually exclusive with Trajectories.
	Workload *workload.Spec
	Policy   alloc.Policy
	Budget   units.Watts
	Sync     clock.Method
	// Network carries the control plane; nil selects in-memory. The run
	// closes it on exit.
	Network transport.Network
	// Rounds to run (zero: 5), each advancing the run's virtual clock by
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
	// WorkloadTrace is the engine's canonical churn event log (nil without
	// Config.Workload): byte-identical across runs with the same seed and
	// spec.
	WorkloadTrace []byte
}

// RunContext runs sim.Drive's epoch on the goroutine-per-node runtime: it
// spawns every transmitter and every receiver as a goroutine over the
// transport, runs the configured number of rounds, and shuts everything
// down. Cancelling ctx aborts the round loop and tears the deployment down,
// in addition to the cfg.Timeout bound.
//
// Under cfg.Workload every fleet slot is a receiver goroutine. The driver
// steps the engine on the calling goroutine at each round boundary
// (workload.Engine is single-goroutine), and a free slot's photodiode is
// dark, so the real pilot/report path delivers its dark channel and the
// allocator withdraws its swing. Slot vacancy and chaos blockage are
// separate state of the medium: a chaos rxblock on an occupied slot
// survives churn steps, and a vacated slot stays dark whatever its chaos
// attenuation.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 5
	}
	if cfg.FramesPerRX <= 0 && cfg.Workload == nil {
		cfg.FramesPerRX = 4
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
	defer cancel()

	var wg sync.WaitGroup
	errCh := make(chan error, 1)
	res := &Result{Rounds: make([]RoundStats, 0, cfg.Rounds)}
	out, runErr := sim.Drive(sim.Config{
		Setup:            cfg.Setup,
		Trajectories:     cfg.Trajectories,
		Policy:           cfg.Policy,
		Budget:           cfg.Budget,
		Sync:             cfg.Sync,
		Rounds:           cfg.Rounds,
		RoundDuration:    cfg.RoundDuration,
		MeasurementNoise: cfg.MeasurementNoise,
		Network:          cfg.Network,
		Chaos:            cfg.Chaos,
		Trigger:          cfg.Trigger,
		Workload:         cfg.Workload,
		Seed:             cfg.Seed,
	}, func(p *sim.Plant) (sim.Runtime, error) {
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
		hub := NewHub(p.Medium, cfg.Seed)
		for j := 0; j < p.N; j++ {
			link, err := p.Network.NewNode()
			if err != nil {
				return nil, fmt.Errorf("node: TX %d link: %w", j, err)
			}
			id := j
			spawn(func() error { return runTX(ctx, id, link, hub) })
		}
		res.DeliveredPerRX = make([]int, p.M)
		for i := 0; i < p.M; i++ {
			link, err := p.Network.NewNode()
			if err != nil {
				return nil, fmt.Errorf("node: RX %d link: %w", i, err)
			}
			id, delivered := i, &res.DeliveredPerRX[i]
			spawn(func() error { return runRX(ctx, id, p.N, link, hub, delivered) })
		}
		return &async{ctx: ctx, cfg: cfg, p: p, hub: hub, res: res}, nil
	})

	// Drive has closed the network; stop the node goroutines too. Once
	// they have exited, their delivery counters are final.
	cancel()
	wg.Wait()

	if out == nil {
		return nil, runErr // refused before the first round
	}
	res.Trace, res.WorkloadTrace = out.Trace, out.WorkloadTrace
	for k, r := range out.Rounds {
		res.Rounds[k].RoundMetrics = r
		res.Rounds[k].SystemThroughput = r.Eval.SumThroughput
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
