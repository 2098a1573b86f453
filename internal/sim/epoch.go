package sim

import (
	"fmt"
	"math/rand"

	"densevlc/internal/alloc"
	"densevlc/internal/channel"
	"densevlc/internal/chaos"
	"densevlc/internal/frame"
	"densevlc/internal/geom"
	"densevlc/internal/mac"
	"densevlc/internal/scenario"
	"densevlc/internal/stats"
	"densevlc/internal/transport"
	"densevlc/internal/units"
	"densevlc/internal/workload"
)

// Runtime is how one runtime moves an epoch's frames. Drive owns the epoch
// itself; a Runtime supplies only the steps whose frames travel differently
// in the lock-step engine (Run) and in the goroutine-per-node runtime
// (package node).
type Runtime interface {
	// Medium runs f, which does not block, with the medium to itself.
	// Drive touches the medium only through it: at the round boundary and
	// to read the truth it scores the plan against.
	Medium(f func(md *scenario.Medium))
	// Measure runs the slots of the pilot schedule Drive has just
	// multicast and feeds the receivers' reports to the controller. It
	// reports whether every receiver's report arrived.
	Measure() (reportsOK bool, err error)
	// Dispatch has the transmitters apply the allocation Drive has just
	// multicast.
	Dispatch() error
	// Data runs the data phase of ep.Plan. Drive appends ep's record to
	// the result once Data returns without error.
	Data(ep *Epoch) error
}

// Plant is the deployment Drive brings up before a runtime attaches to it.
type Plant struct {
	// Config is the run's configuration with its defaults applied.
	Config Config
	// N transmitters and M receivers (M is the fleet under a workload).
	N, M       int
	Medium     *scenario.Medium
	Network    transport.Network
	Link       transport.ControllerLink
	Controller *mac.Controller
	// Engine steps the churn population (nil without Config.Workload).
	Engine *workload.Engine
	// Rand is the run's stream after the engine's split.
	Rand *rand.Rand
}

// Epoch is one round as Drive hands it to the runtime's data phase: the
// round's record so far and the plan it commands.
type Epoch struct {
	RoundMetrics
	Plan mac.Plan
}

// Drive runs the epochs of the deployment cfg describes, for both runtimes.
// It validates cfg and brings the deployment up (workload engine, medium,
// network, controller), then lets attach build the runtime's transmitters
// and receivers on it. Every epoch runs in one order: the round boundary
// (churn step, receiver moves, chaos), the pilot-schedule multicast and the
// runtime's measurement, the timed decision, the allocation multicast and
// the runtime's dispatch, the score of the commanded plan against the
// medium's truth, and the runtime's data phase. Drive keeps every round's
// record and returns it with the run's traces and means. Drive closes the
// network when it returns, and an error in the round loop comes back with
// the result so far: the rounds that ran and their means.
func Drive(cfg Config, attach func(p *Plant) (Runtime, error)) (*Result, error) {
	net := cfg.Network
	if net == nil {
		net = transport.NewMemNetwork()
	}
	defer func() { _ = net.Close() }() // teardown; transport errors have no recovery path here
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	n := cfg.Setup.Grid.N()
	m := len(cfg.Trajectories)
	if cfg.Workload != nil {
		m = cfg.Workload.Fleet
	}
	if err := mac.CheckWireLimits(n, m); err != nil {
		return nil, err
	}
	rng := stats.NewRand(cfg.Seed)
	var engine *workload.Engine
	if cfg.Workload != nil {
		var err error
		if engine, err = workload.NewEngine(*cfg.Workload, cfg.Setup, cfg.Budget, stats.SplitRand(rng)); err != nil {
			return nil, err
		}
	}
	if err := cfg.Chaos.Validate(n, m); err != nil {
		return nil, err
	}
	ctrl := mac.NewController(n, m, cfg.Policy, cfg.Budget, cfg.Setup.Params, cfg.Setup.LED)
	ctrl.Trigger = cfg.Trigger
	p := &Plant{
		Config: cfg, N: n, M: m,
		Medium:  scenario.NewMedium(cfg.Setup, make([]geom.Vec, m), cfg.Sync, cfg.MeasurementNoise),
		Network: net, Link: net.Controller(), Controller: ctrl, Engine: engine, Rand: rng,
	}
	rt, err := attach(p)
	if err != nil {
		return nil, err
	}

	injector := chaos.NewInjector(cfg.Chaos)
	res := &Result{Rounds: make([]RoundMetrics, 0, cfg.Rounds), Trace: injector.Trace()}
	err = p.run(rt, injector, res)
	if engine != nil {
		res.WorkloadTrace = engine.TraceBytes()
	}
	for _, r := range res.Rounds {
		res.MeanSystemThroughput += r.Eval.SumThroughput
		res.MeanCommPower += r.Eval.CommPower
	}
	if n := len(res.Rounds); n > 0 {
		res.MeanSystemThroughput /= units.BitsPerSecond(n)
		res.MeanCommPower /= units.Watts(n)
	}
	return res, err
}

// run is Drive's round loop; it appends each round's record to res.
func (p *Plant) run(rt Runtime, injector *chaos.Injector, res *Result) error {
	cfg, ctrl := p.Config, p.Controller
	var tracker *workload.Tracker
	if p.Engine != nil {
		tracker = workload.NewTracker(p.M)
	}
	var occupied []bool
	pos := make([]geom.Vec, p.M)
	for round := 0; round < cfg.Rounds; round++ {
		t := units.Seconds(float64(round) * cfg.RoundDuration.S())
		ep := Epoch{RoundMetrics: RoundMetrics{Round: round, Time: t}}

		// The round boundary: population churn, then the receivers' moves,
		// then fault injection. This epoch's pilots already see the
		// arrivals, the freed slots (dark photodiodes, so a departed user
		// earns no swing) and the faults the reallocation must recover
		// from. Vacancy and faults are separate state of the medium, so
		// their order does not matter.
		var step workload.StepStats
		if p.Engine != nil {
			step = p.Engine.Step(t, cfg.RoundDuration)
			occupied = p.Engine.ActiveMask(occupied)
		}
		for i := range pos {
			if p.Engine != nil {
				pos[i] = p.Engine.Position(i, t)
			} else {
				pos[i] = cfg.Trajectories[i].Position(t)
			}
		}
		rt.Medium(func(md *scenario.Medium) {
			if occupied != nil {
				md.SetOccupied(occupied)
			}
			for i, xy := range pos {
				md.Move(i, xy)
			}
			ep.ChaosEvents = injector.Apply(round, t, md.Faults())
			ep.RXPositions = md.Positions()
			ep.FailedTXs = md.Faults().FailedTXs()
		})

		// Measurement: one pilot schedule, then the slots in time division.
		pf, err := ctrl.PilotFrame()
		if err != nil {
			return err
		}
		if err := multicast(p.Link, pf); err != nil {
			return err
		}
		if ep.ReportsOK, err = rt.Measure(); err != nil {
			return err
		}

		// Decision.
		sw := stats.StartStopwatch()
		ep.Plan, err = ctrl.Reallocate()
		ep.DecisionTime = sw.Elapsed()
		if err != nil {
			return err
		}
		ep.DeadTXs = len(ctrl.DeadTXs())
		for _, txs := range ep.Plan.ServedBy {
			if len(txs) == 0 {
				ep.StarvedRXs++
			}
		}
		af, err := ctrl.AllocationFrame(ep.Plan)
		if err != nil {
			return err
		}
		if err := multicast(p.Link, af); err != nil {
			return err
		}
		if err := rt.Dispatch(); err != nil {
			return err
		}

		// Score: the plan as the transmitters understand it, decoded from
		// the allocation frame just sent, against what the photodiodes can
		// actually receive.
		a, err := mac.DecodeAllocation(af.MAC.Payload)
		if err != nil {
			return err
		}
		swings := channel.NewSwings(p.N, p.M)
		for _, c := range a.Commands {
			if c.RX >= 0 {
				swings[c.TX][c.RX] = c.Swing()
			}
			if c.Communicating() {
				ep.ActiveTXs++
			}
		}
		var truth *alloc.Env
		rt.Medium(func(md *scenario.Medium) { truth = md.Truth() })
		ep.Eval = alloc.Evaluate(truth, swings)
		if p.Engine != nil {
			ep.Churn = &ChurnMetrics{
				Step:     step,
				Handover: tracker.Observe(occupied, ep.Plan.ServedBy, ep.Plan.Leader),
				Active:   append([]bool(nil), occupied...),
			}
		}

		if err := rt.Data(&ep); err != nil {
			return err
		}
		res.Rounds = append(res.Rounds, ep.RoundMetrics)
	}
	return nil
}

// multicast serialises a control frame and sends it to every node.
func multicast(link transport.ControllerLink, d frame.Downlink) error {
	wire, err := d.Serialize()
	if err != nil {
		return err
	}
	if err := link.Multicast(wire); err != nil {
		return fmt.Errorf("sim: multicast of protocol 0x%04x: %w", d.MAC.Protocol, err)
	}
	return nil
}
