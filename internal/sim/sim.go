// Package sim runs the full DenseVLC system in rounds, wiring the real
// components together end to end: the controller's MAC (pilot scheduling,
// decision logic, beamspot dispatch) talks to transmitter and receiver
// state machines over a transport, receivers measure channels that come
// from the optical medium (scenario.Medium) at the current receiver
// positions, and the data phase scores the resulting beamspots.
//
// Drive is the one epoch loop of both runtimes. It owns bring-up, the round
// boundary (churn, mobility, chaos), both control multicasts, the timed
// decision and the score; a Runtime moves the frames in between. Run is
// the lock-step runtime, whose data phase is analytic through Eq. (12) or
// mechanistic through the waveform PHY; package node supplies the
// goroutine-per-node one.
//
// One Run covers mobility, re-allocation and synchronisation jointly: the
// "RXs move, the system adapts" loop the paper motivates.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

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
	// node runtime's default too. A policy with a Validate() error method
	// is checked at bring-up.
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
	// (cmd/densevlc does). The simulator closes it when the run ends. Run
	// refuses a transport.LossyNetwork, whose lost reports only the
	// asynchronous runtime can wait out.
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
	if v, ok := c.Policy.(interface{ Validate() error }); ok {
		if err := v.Validate(); err != nil {
			return err
		}
	}
	if c.Rounds <= 0 {
		c.Rounds = 10
	}
	if c.RoundDuration <= 0 {
		c.RoundDuration = 1.0
	}
	if !finiteNonNegative(c.MeasurementNoise) {
		return fmt.Errorf("sim: measurement noise %v is not finite and non-negative", c.MeasurementNoise)
	}
	if c.FramesPerRound <= 0 {
		c.FramesPerRound = 20
	}
	if !finiteNonNegative(c.Budget.W()) {
		return fmt.Errorf("sim: budget %v W is not finite and non-negative", c.Budget.W())
	}
	if !finiteNonNegative(c.Trigger.RelDelta) {
		return fmt.Errorf("sim: trigger RelDelta %v is not finite and non-negative", c.Trigger.RelDelta)
	}
	if c.Trigger.MaxStaleEpochs < 0 {
		return fmt.Errorf("sim: trigger MaxStaleEpochs %d is negative", c.Trigger.MaxStaleEpochs)
	}
	return nil
}

// finiteNonNegative reports whether x is a usable magnitude: NaN, ±Inf and
// negatives are not, and a NaN would pass a plain x < 0 test.
func finiteNonNegative(x float64) bool {
	return x >= 0 && !math.IsInf(x, 1)
}

// RoundMetrics records one round's outcome. It is the per-round record of
// both runtimes: Drive fills it, the lock-step data phase adds PER and
// goodput, and package node pairs it with its ARQ counters.
type RoundMetrics struct {
	Round       int
	Time        units.Seconds
	RXPositions []geom.Vec
	// ReportsOK reports whether every receiver's channel report reached the
	// controller before the decision.
	ReportsOK bool
	// DecisionTime is the wall-clock cost of this round's Reallocate call,
	// the record's only wall-clock field.
	DecisionTime time.Duration
	// Eval scores the commanded allocation against the true channel.
	Eval alloc.Evaluation
	// PER per receiver: waveform-measured when WaveformPHY is on, the
	// analytic channel.FramePER model otherwise.
	PER []float64
	// Goodput per receiver, from PER by phy.Goodput in both PHY modes.
	Goodput []units.BitsPerSecond
	// ActiveTXs is the number of communicating transmitters.
	ActiveTXs int
	// StarvedRXs counts the receivers this round's plan leaves without any
	// serving transmitter, vacant churn slots included. It is a measurement,
	// not a guarantee. Algorithm 1 gives each transmitter to its strongest
	// receiver and the budget buys the top of the SJR ranking, so a
	// receiver whose transmitters all rank below that cut gets none, even
	// with every transmitter alive. A receiver that roams into a dim spot
	// can hit this: in round 2 of `densevlc -rounds 8 -udp=false` (seed 1),
	// RX 1's seven transmitters rank 17th and below, and 1.19 W buys 16.
	// The resilience study and mac's recovery sweep hold it at zero on the
	// anchored Fig. 6/7 placements only.
	StarvedRXs int
	// DeadTXs is the number of transmitters the controller's link-health
	// tracker classifies dead after this round's reallocation.
	DeadTXs int
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

// Run executes the simulation: Drive's epoch on the lock-step runtime.
func Run(cfg Config) (*Result, error) {
	return Drive(cfg, (&lockstep{}).attach)
}

// attach builds every node's MAC state machine and network link. It
// refuses a LossyNetwork before opening any: Measure reads exactly one
// report per receiver and cannot wait out a lost one.
func (ls *lockstep) attach(p *Plant) (Runtime, error) {
	if _, lossy := p.Network.(*transport.LossyNetwork); lossy {
		return nil, errors.New("sim: the lock-step engine reads exactly one report per receiver and cannot wait out a lost one, so it refuses a LossyNetwork; node.RunContext runs over one")
	}
	ls.p = p
	for j := 0; j < p.N; j++ {
		link, err := p.Network.NewTX()
		if err != nil {
			return nil, fmt.Errorf("sim: TX %d link: %w", j, err)
		}
		ls.txNodes = append(ls.txNodes, mac.NewTXNode(j))
		ls.txLinks = append(ls.txLinks, link)
	}
	for i := 0; i < p.M; i++ {
		link, err := p.Network.NewNode()
		if err != nil {
			return nil, fmt.Errorf("sim: RX %d link: %w", i, err)
		}
		ls.rxNodes = append(ls.rxNodes, mac.NewRXNode(i, p.N))
		ls.rxLinks = append(ls.rxLinks, link)
	}
	return ls, nil
}

// lockstep is the synchronous Runtime: every node's MAC state machine
// steps in turn on Drive's goroutine, each phase drains its frames from
// the network before the next begins, and the run's one stream draws the
// pilot noise and the data phase in a fixed order.
type lockstep struct {
	p       *Plant
	txNodes []*mac.TXNode
	txLinks []transport.TXLink
	rxNodes []*mac.RXNode
	rxLinks []transport.NodeLink
}

func (ls *lockstep) Medium(f func(md *scenario.Medium)) { f(ls.p.Medium) }

// downlink has every transmitter read and decode the control frame just
// multicast, each of them finding want in it. The frame is already queued
// on every transmitter link, so no Receive blocks.
func (ls *lockstep) downlink(want mac.TXAction) error {
	for k, node := range ls.txNodes {
		raw, err := ls.txLinks[k].Receive()
		if err != nil {
			return fmt.Errorf("sim: TX %d downlink: %w", k, err)
		}
		d, _, err := frame.DecodeDownlink(raw)
		if err != nil {
			return fmt.Errorf("sim: TX %d decode: %w", k, err)
		}
		if action, err := node.HandleDownlink(d); err != nil {
			return err
		} else if action != want {
			return fmt.Errorf("sim: TX %d took action %d, want %d", k, action, want)
		}
	}
	return nil
}

// Measure has every TX find its slot in the schedule, then runs the slots.
func (ls *lockstep) Measure() (bool, error) {
	if err := ls.downlink(mac.TXPilotSlot); err != nil {
		return false, err
	}
	// Physical measurement, slot by slot: each RX estimates TX j's gain
	// from its pilot with M2M4-grade noise.
	for j := range ls.txNodes {
		for i, rx := range ls.rxNodes {
			if err := rx.RecordMeasurement(j, ls.p.Medium.Pilot(ls.p.Rand, j, i)); err != nil {
				return false, err
			}
		}
	}
	// Receivers report when their round completes. The controller reads
	// each report as it is sent, so at most one waits in its socket.
	for i, rx := range ls.rxNodes {
		if !rx.RoundComplete() {
			return false, fmt.Errorf("sim: RX %d round incomplete", i)
		}
		raw, err := frame.SerializeMAC(rx.BuildReport())
		if err != nil {
			return false, err
		}
		if err := ls.rxLinks[i].SendUplink(raw); err != nil {
			return false, err
		}
		if raw, err = ls.p.Link.Receive(); err != nil {
			return false, fmt.Errorf("sim: uplink: report %d: %w", i, err)
		}
		rep, _, _, err := frame.DecodeMAC(raw)
		if err != nil {
			return false, fmt.Errorf("sim: uplink decode: %w", err)
		}
		if err := ls.p.Controller.HandleUplink(rep); err != nil {
			return false, err
		}
	}
	if !ls.p.Controller.HaveFreshReports() {
		return false, errors.New("sim: controller missing reports")
	}
	return true, nil
}

// Dispatch configures the medium with each transmitter's command as the
// transmitter understood it.
func (ls *lockstep) Dispatch() error {
	if err := ls.downlink(mac.TXReconfigure); err != nil {
		return err
	}
	for j, node := range ls.txNodes {
		ls.p.Medium.Configure(j, node.Cmd.RX, node.Cmd.Swing(), node.Cmd.Leader)
	}
	return nil
}

// Data scores the data phase per receiver, by the closed-form PER model or
// through the waveform PHY.
func (ls *lockstep) Data(ep *Epoch) error {
	m := ls.p.M
	ep.PER = make([]float64, m)
	ep.Goodput = make([]units.BitsPerSecond, m)
	if ls.p.Config.WaveformPHY {
		if err := ls.waveform(ep); err != nil {
			return err
		}
	} else {
		// Fast path: the closed-form PER model at the data phase's
		// bandwidth-time product (1 MHz noise band, 5 µs chips), and the
		// matching goodput at the Table 5 frame cycle (100 Ksymbols/s).
		const bt = 5
		for i, sinr := range ep.Eval.SINR {
			ep.PER[i] = channel.FramePER(sinr, payloadLen, bt)
			ep.Goodput[i] = phy.Goodput(payloadLen, ep.PER[i], 100e3)
		}
	}
	return nil
}

// waveform runs the waveform-level frame exchange for each beamspot over
// the medium: its members as commanded, every other beamspot as
// interference.
func (ls *lockstep) waveform(ep *Epoch) error {
	md := ls.p.Medium
	for rx, members := range ep.Plan.ServedBy {
		if len(members) == 0 {
			ep.PER[rx] = 1
			continue
		}
		link, err := md.NewLink(stats.SplitRand(ls.p.Rand))
		if err != nil {
			return err
		}
		var txs []phy.TXSignal
		res, err := link.MeasurePER(phy.PERConfig{
			PayloadLen: payloadLen,
			Frames:     ls.p.Config.FramesPerRound,
		}, func(r *rand.Rand) []phy.TXSignal {
			txs = md.Signals(r, rx, members, txs[:0])
			return txs
		})
		if err != nil {
			return err
		}
		ep.PER[rx], ep.Goodput[rx] = res.PER, res.Goodput
	}
	return nil
}
