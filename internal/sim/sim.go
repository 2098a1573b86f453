// Package sim runs the full DenseVLC system in rounds, wiring the real
// components together end to end: the controller's MAC (pilot scheduling,
// decision logic, beamspot dispatch) talks to transmitter and receiver
// state machines over a transport, receivers measure channels that come
// from the optical medium (scenario.Medium, the one node's hub wraps too)
// at the current receiver positions, and the data phase scores the
// resulting beamspots — analytically through Eq. (12) or mechanistically
// through the waveform PHY.
//
// One Run covers mobility, re-allocation and synchronisation jointly: the
// "RXs move, the system adapts" loop the paper motivates.
package sim

import (
	"errors"
	"fmt"
	"math/rand"

	"densevlc/internal/alloc"
	"densevlc/internal/channel"
	"densevlc/internal/chaos"
	"densevlc/internal/clock"
	"densevlc/internal/frame"
	"densevlc/internal/geom"
	"densevlc/internal/mac"
	"densevlc/internal/mobility"
	"densevlc/internal/phy"
	"densevlc/internal/scenario"
	"densevlc/internal/stats"
	"densevlc/internal/transport"
	"densevlc/internal/units"
	"densevlc/internal/workload"
)

// payloadLen is the data frame payload in bytes.
const payloadLen = 64

// Config parameterises a system run.
type Config struct {
	// Setup is the physical deployment.
	Setup scenario.Setup
	// Trajectories drive the receivers (their count sets M).
	Trajectories []mobility.Trajectory
	// Policy and Budget configure the controller's decision logic. A nil
	// Policy selects the κ = 1.3 heuristic with partial allocation, the
	// node runtime's default too.
	Policy alloc.Policy
	Budget units.Watts
	// Sync selects how beamspot transmitters are synchronised in the
	// waveform data phase.
	Sync clock.Method
	// Rounds is the number of measure→decide→transmit rounds.
	Rounds int
	// RoundDuration is the wall-clock length of one round (sets how far
	// receivers move between decisions).
	RoundDuration units.Seconds
	// MeasurementNoise is the relative standard deviation of the
	// receivers' channel estimates (M2M4 estimation error; ~2% typical).
	MeasurementNoise float64
	// WaveformPHY enables the sample-level data phase: per-round frame
	// error rates from actual superposition and decoding. Expensive;
	// disabled runs score rounds analytically via Eq. (12).
	WaveformPHY bool
	// FramesPerRound is the number of data frames per receiver per round
	// in the waveform data phase.
	FramesPerRound int
	// Network carries the control plane. Nil selects a fresh in-memory
	// network; pass a transport.UDPNetwork to exercise real sockets
	// (cmd/densevlc does). The simulator closes it when the run ends.
	Network transport.Network
	// Chaos optionally schedules fault events (TX failures, receiver
	// blockage, clock steps) applied at round boundaries. The synchronous
	// engine replays them fully deterministically: same seed + schedule
	// gives byte-identical traces and metrics.
	Chaos *chaos.Schedule
	// Trigger enables the controller's event-driven re-allocation gate:
	// epochs whose reported gains all moved less than Trigger.RelDelta
	// since the last solve reuse the cached plan at zero solver cost (see
	// mac.Trigger). The zero value keeps the solve-every-round behaviour.
	Trigger mac.Trigger
	// Workload, when non-nil, replaces Trajectories with a churn-driven
	// population: Fleet receiver slots whose tenancy evolves by Poisson
	// arrivals and exponential dwell (see internal/workload). Free slots
	// report dark channels, so the allocator serves only live users. The
	// run is deterministic for a given seed, like everything else in this
	// engine. Mutually exclusive with Trajectories.
	Workload *workload.Spec
	// Seed makes the run reproducible.
	Seed int64
}

func (c *Config) withDefaults() error {
	if c.Workload != nil {
		if len(c.Trajectories) != 0 {
			return errors.New("sim: Workload and Trajectories are mutually exclusive")
		}
	} else if len(c.Trajectories) == 0 {
		return errors.New("sim: no receivers")
	}
	if c.Policy == nil {
		c.Policy = alloc.Heuristic{Kappa: 1.3, AllowPartial: true}
	}
	if c.Rounds <= 0 {
		c.Rounds = 10
	}
	if c.RoundDuration <= 0 {
		c.RoundDuration = 1.0
	}
	if c.MeasurementNoise < 0 {
		return errors.New("sim: negative measurement noise")
	}
	if c.FramesPerRound <= 0 {
		c.FramesPerRound = 20
	}
	if c.Budget < 0 {
		return errors.New("sim: negative budget")
	}
	return nil
}

// RoundMetrics records one round's outcome.
type RoundMetrics struct {
	Round       int
	Time        units.Seconds
	RXPositions []geom.Vec
	// Eval scores the commanded allocation against the true channel.
	Eval alloc.Evaluation
	// PER per receiver: waveform-measured when WaveformPHY is on, the
	// analytic channel.FramePER model otherwise.
	PER []float64
	// Goodput per receiver (waveform runs only).
	Goodput []units.BitsPerSecond
	// ActiveTXs is the number of communicating transmitters.
	ActiveTXs int
	// Swings is the commanded swing matrix as the transmitters understood
	// it — what Eval scores against the true channel.
	Swings channel.Swings
	// ChaosEvents counts fault events injected at this round's boundary.
	ChaosEvents int
	// FailedTXs lists the transmitters dark during this round.
	FailedTXs []int
	// Churn carries the workload engine's view of the round (nil without
	// Config.Workload).
	Churn *ChurnMetrics
}

// ChurnMetrics is one round under a churn workload: the population step
// that opened it, the handover transitions its plan performed, and the
// per-slot occupancy the invariant suites assert against.
type ChurnMetrics struct {
	Step     workload.StepStats
	Handover workload.HandoverStats
	// Active marks the slots hosting users this round (a copy).
	Active []bool
}

// Result aggregates a run.
type Result struct {
	Rounds []RoundMetrics
	// MeanSystemThroughput averages the analytic system throughput over
	// rounds.
	MeanSystemThroughput units.BitsPerSecond
	// MeanCommPower averages the consumed communication power.
	MeanCommPower units.Watts
	// Trace records the chaos events applied during the run (empty without
	// a schedule).
	Trace *chaos.Trace
	// WorkloadTrace is the churn engine's canonical event log (nil without
	// Config.Workload): byte-identical across runs with the same seed and
	// spec, which is how the determinism suites compare runs.
	WorkloadTrace []byte
}

// Run executes the simulation.
func Run(cfg Config) (*Result, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	rng := stats.NewRand(cfg.Seed)

	n := cfg.Setup.Grid.N()
	m := len(cfg.Trajectories)
	if cfg.Workload != nil {
		m = cfg.Workload.Fleet
	}
	if err := mac.CheckWireLimits(n, m); err != nil {
		return nil, err
	}
	var engine *workload.Engine
	var tracker *workload.Tracker
	var activeMask []bool
	if cfg.Workload != nil {
		var err error
		engine, err = workload.NewEngine(*cfg.Workload, cfg.Setup, cfg.Budget, stats.SplitRand(rng))
		if err != nil {
			return nil, err
		}
		tracker = workload.NewTracker(m)
	}

	// Real control-plane components over the configured transport.
	net := cfg.Network
	if net == nil {
		net = transport.NewMemNetwork()
	}
	defer func() { _ = net.Close() }() // teardown; transport errors have no recovery path here
	ctrlLink := net.Controller()

	ctrl := mac.NewController(n, m, cfg.Policy, cfg.Budget, cfg.Setup.Params, cfg.Setup.LED)
	ctrl.Trigger = cfg.Trigger
	txNodes := make([]*mac.TXNode, n)
	txLinks := make([]transport.NodeLink, n)
	for j := 0; j < n; j++ {
		txNodes[j] = mac.NewTXNode(j)
		link, err := net.NewNode()
		if err != nil {
			return nil, fmt.Errorf("sim: TX %d link: %w", j, err)
		}
		txLinks[j] = link
	}
	rxNodes := make([]*mac.RXNode, m)
	rxLinks := make([]transport.NodeLink, m)
	for i := 0; i < m; i++ {
		rxNodes[i] = mac.NewRXNode(i, n)
		link, err := net.NewNode()
		if err != nil {
			return nil, fmt.Errorf("sim: RX %d link: %w", i, err)
		}
		rxLinks[i] = link
	}

	if err := cfg.Chaos.Validate(n, m); err != nil {
		return nil, err
	}
	md := scenario.NewMedium(cfg.Setup, make([]geom.Vec, m), cfg.Sync, cfg.MeasurementNoise)
	injector := chaos.NewInjector(cfg.Chaos)

	res := &Result{Trace: injector.Trace()}

	for round := 0; round < cfg.Rounds; round++ {
		t := units.Seconds(float64(round) * cfg.RoundDuration.S())

		// Fault injection happens at the round boundary, before the pilot
		// phase, so this epoch's measurements already see the faults and
		// this epoch's reallocation recovers from them.
		chaosEvents := injector.Apply(round, t, md.Faults())

		// Population churn happens at the same boundary: this epoch's
		// measurements already see the arrivals and freed slots, whose
		// photodiodes are dark, so the allocator never grants a departed
		// user swing.
		var churnStep workload.StepStats
		if engine != nil {
			churnStep = engine.Step(t, cfg.RoundDuration)
			activeMask = engine.ActiveMask(activeMask)
			md.SetOccupied(activeMask)
		}

		// Receiver positions for this round.
		for i := 0; i < m; i++ {
			if engine != nil {
				md.Move(i, engine.Position(i, t))
			} else {
				md.Move(i, cfg.Trajectories[i].Position(t))
			}
		}
		pos := md.Positions()

		// --- Measurement phase: one pilot schedule, then the slots in
		// time division. ---
		pf, err := ctrl.PilotFrame()
		if err != nil {
			return nil, err
		}
		wire, err := pf.Serialize()
		if err != nil {
			return nil, err
		}
		if err := ctrlLink.Multicast(wire); err != nil {
			return nil, err
		}
		// Every TX decodes the schedule once and must find its slot in it.
		for k := 0; k < n; k++ {
			raw := <-txLinks[k].Downlink()
			d, _, err := frame.DecodeDownlink(raw)
			if err != nil {
				return nil, fmt.Errorf("sim: TX %d decode: %w", k, err)
			}
			action, err := txNodes[k].HandleDownlink(d)
			if err != nil {
				return nil, err
			}
			if action != mac.TXPilotSlot {
				return nil, fmt.Errorf("sim: TX %d never entered its pilot slot", k)
			}
		}
		// Receivers also see the multicast on their links; drain it.
		for i := 0; i < m; i++ {
			<-rxLinks[i].Downlink()
		}
		// Physical measurement, slot by slot: each RX estimates TX j's gain
		// from its pilot with M2M4-grade noise.
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				if err := rxNodes[i].RecordMeasurement(j, md.Pilot(rng, j, i)); err != nil {
					return nil, err
				}
			}
		}

		// Receivers report when their round completes.
		for i := 0; i < m; i++ {
			if !rxNodes[i].RoundComplete() {
				return nil, fmt.Errorf("sim: RX %d round incomplete", i)
			}
			rep := rxNodes[i].BuildReport()
			raw, err := frame.SerializeMAC(rep)
			if err != nil {
				return nil, err
			}
			if err := rxLinks[i].SendUplink(raw); err != nil {
				return nil, err
			}
		}
		for i := 0; i < m; i++ {
			raw := <-ctrlLink.Uplink()
			repFrame, _, _, err := frame.DecodeMAC(raw)
			if err != nil {
				return nil, fmt.Errorf("sim: uplink decode: %w", err)
			}
			if err := ctrl.HandleUplink(repFrame); err != nil {
				return nil, err
			}
		}
		if !ctrl.HaveFreshReports() {
			return nil, errors.New("sim: controller missing reports")
		}

		// --- Decision phase. ---
		plan, err := ctrl.Reallocate()
		if err != nil {
			return nil, err
		}
		af, err := ctrl.AllocationFrame(plan)
		if err != nil {
			return nil, err
		}
		wire, err = af.Serialize()
		if err != nil {
			return nil, err
		}
		if err := ctrlLink.Multicast(wire); err != nil {
			return nil, err
		}
		for k := 0; k < n; k++ {
			raw := <-txLinks[k].Downlink()
			d, _, err := frame.DecodeDownlink(raw)
			if err != nil {
				return nil, err
			}
			if _, err := txNodes[k].HandleDownlink(d); err != nil {
				return nil, err
			}
		}
		for i := 0; i < m; i++ {
			<-rxLinks[i].Downlink()
		}

		// Commanded swings as the TXs understood them.
		active := 0
		for j, node := range txNodes {
			md.Configure(j, node.Cmd.RX, node.Swing(), node.Cmd.Leader)
			if node.Communicating() {
				active++
			}
		}
		cmdSwings := md.Swings()

		// --- Data phase. ---
		rm := RoundMetrics{
			Round:       round,
			Time:        t,
			RXPositions: pos,
			Eval:        alloc.Evaluate(md.Truth(), cmdSwings),
			ActiveTXs:   active,
			Swings:      cmdSwings,
			ChaosEvents: chaosEvents,
			FailedTXs:   md.Faults().FailedTXs(),
		}
		if engine != nil {
			rm.Churn = &ChurnMetrics{
				Step:     churnStep,
				Handover: tracker.Observe(activeMask, plan.ServedBy, plan.Leader),
				Active:   append([]bool(nil), activeMask...),
			}
		}
		if cfg.WaveformPHY {
			per, goodput, err := dataPhase(cfg, rng, md, plan)
			if err != nil {
				return nil, err
			}
			rm.PER, rm.Goodput = per, goodput
		} else {
			// Fast path: the closed-form PER model at the data phase's
			// bandwidth-time product (1 MHz noise band, 5 µs chips), and
			// the matching goodput at the Table 5 frame cycle.
			const bt = 5
			rm.PER = make([]float64, m)
			rm.Goodput = make([]units.BitsPerSecond, m)
			symbols := float64(frame.PilotSymbols + frame.PreambleSymbols + 8*frame.AirLen(payloadLen))
			cycle := symbols/100e3 + 17e-3
			for i, sinr := range rm.Eval.SINR {
				rm.PER[i] = channel.FramePER(sinr, payloadLen, bt)
				rm.Goodput[i] = units.BitsPerSecond(float64(8*payloadLen) * (1 - rm.PER[i]) / cycle)
			}
		}
		res.Rounds = append(res.Rounds, rm)
		res.MeanSystemThroughput += rm.Eval.SumThroughput
		res.MeanCommPower += rm.Eval.CommPower
	}

	res.MeanSystemThroughput /= units.BitsPerSecond(len(res.Rounds))
	res.MeanCommPower /= units.Watts(len(res.Rounds))
	if engine != nil {
		res.WorkloadTrace = engine.TraceBytes()
	}
	return res, nil
}

// dataPhase runs the waveform-level frame exchange for each beamspot over
// the medium: its members as commanded, every other beamspot as
// interference.
func dataPhase(cfg Config, rng *rand.Rand, md *scenario.Medium, plan mac.Plan) (per []float64, goodput []units.BitsPerSecond, err error) {
	m := len(plan.ServedBy)
	per = make([]float64, m)
	goodput = make([]units.BitsPerSecond, m)

	for rx, members := range plan.ServedBy {
		if len(members) == 0 {
			per[rx] = 1
			continue
		}
		link, err := md.NewLink(stats.SplitRand(rng))
		if err != nil {
			return nil, nil, err
		}
		var txs []phy.TXSignal
		resPER, err := link.MeasurePER(phy.PERConfig{
			PayloadLen:    payloadLen,
			Frames:        cfg.FramesPerRound,
			ACKTurnaround: 17e-3,
		}, func(r *rand.Rand) []phy.TXSignal {
			txs = md.Signals(r, rx, members, txs[:0])
			return txs
		})
		if err != nil {
			return nil, nil, err
		}
		per[rx] = resPER.PER
		goodput[rx] = resPER.Goodput
	}
	return per, goodput, nil
}
