package node

import (
	"context"
	"errors"
	"fmt"
	"time"

	"densevlc/internal/alloc"
	"densevlc/internal/channel"
	"densevlc/internal/chaos"
	"densevlc/internal/frame"
	"densevlc/internal/mac"
	"densevlc/internal/stats"
	"densevlc/internal/transport"
	"densevlc/internal/units"
)

// Delivery is one application payload handed to a receiver, tagged with the
// receiver so conformance tests can compare per-RX goodput against the
// allocator's predictions.
type Delivery struct {
	RX      int
	Payload []byte
}

// RunTX is a transmitter node's event loop: it consumes controller frames
// from its link, keeps its MAC state, and acts on the medium. It returns
// when the context is cancelled or the link closes.
func RunTX(ctx context.Context, id int, link transport.NodeLink, hub *Hub) error {
	n := mac.NewTXNode(id)
	for {
		select {
		case <-ctx.Done():
			return nil
		case raw, ok := <-link.Downlink():
			if !ok {
				return nil
			}
			d, _, err := frame.DecodeDownlink(raw)
			if err != nil {
				continue // corrupted control frame: drop, like real Ethernet
			}
			action, err := n.HandleDownlink(d)
			if err != nil {
				continue
			}
			switch action {
			case mac.TXReconfigure:
				hub.Configure(id, n.Cmd.RX, n.Swing(), n.Cmd.Leader)
			case mac.TXPilotSlot:
				hub.Pilot(id)
			case mac.TXTransmit:
				hub.Transmit(id, d)
			}
		}
	}
}

// RunRX is a receiver node's event loop: it assembles channel reports from
// pilot events and acknowledges decoded data frames. Payloads are delivered
// to out (if non-nil).
func RunRX(ctx context.Context, id, numTX int, link transport.NodeLink, hub *Hub, out chan<- Delivery) error {
	n := mac.NewRXNode(id, numTX)
	for {
		select {
		case <-ctx.Done():
			return nil
		case ev, ok := <-hub.PilotEvents(id):
			if !ok {
				return nil
			}
			if err := n.RecordMeasurement(ev.TX, ev.Gain); err != nil {
				continue
			}
			if n.RoundComplete() {
				rep := n.BuildReport()
				raw, err := frame.SerializeMAC(rep)
				if err != nil {
					continue
				}
				if err := link.SendUplink(raw); err != nil && !errors.Is(err, transport.ErrClosed) {
					continue
				}
			}
		case rx, ok := <-hub.Receptions(id):
			if !ok {
				return nil
			}
			payload, ack, handled := n.HandleData(rx.MAC)
			if !handled {
				continue
			}
			if raw, err := frame.SerializeMAC(ack); err == nil {
				_ = link.SendUplink(raw)
			}
			// payload is nil for deduplicated retransmissions: the ACK
			// above still goes out, but the application sees each frame
			// exactly once.
			if out != nil && payload != nil {
				select {
				case out <- Delivery{RX: id, Payload: payload}:
				default:
				}
			}
		// Drain the downlink so control multicast does not back up; data
		// physically reaches receivers through the hub, not the wire.
		case _, ok := <-link.Downlink():
			if !ok {
				return nil
			}
		}
	}
}

// ControllerConfig parameterises the asynchronous controller loop.
type ControllerConfig struct {
	N, M   int
	Policy alloc.Policy
	Budget units.Watts
	// Rounds to run.
	Rounds int
	// RoundDuration advances the hub's virtual clock per round (receiver
	// motion), seconds.
	RoundDuration units.Seconds
	// FramesPerRX data frames per receiver per round.
	FramesPerRX int
	// MaxAttempts bounds transmissions per frame (1 = no retransmission).
	MaxAttempts int
	// ReportTimeout bounds the wait for channel reports per round.
	ReportTimeout time.Duration
	// AckTimeout bounds the wait for data acknowledgements per attempt
	// pass.
	AckTimeout time.Duration
	// Injector optionally replays a chaos fault schedule against the hub
	// at round boundaries (virtual time), keeping the applied-event trace
	// deterministic even in this asynchronous runtime.
	Injector *chaos.Injector
	// BeforeRound, when non-nil, runs on the controller goroutine at each
	// round boundary before the hub's clock advances — the churn engine's
	// hook: it steps the population and marks slot occupancy so the
	// epoch's pilots already see the arrivals and departures.
	BeforeRound func(round int, t units.Seconds)
	// Demand, when non-nil, overrides FramesPerRX per receiver per round
	// (a churn workload's per-user traffic model). Zero-demand receivers
	// send nothing that round.
	Demand func(rx int) int
}

func (c *ControllerConfig) defaults() {
	if c.Rounds <= 0 {
		c.Rounds = 5
	}
	if c.RoundDuration <= 0 {
		c.RoundDuration = 1
	}
	if c.FramesPerRX <= 0 {
		c.FramesPerRX = 4
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 2
	}
	if c.ReportTimeout <= 0 {
		c.ReportTimeout = 2 * time.Second
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = 2 * time.Second
	}
}

// RoundStats summarises one asynchronous round.
type RoundStats struct {
	Round      int
	ReportsOK  bool
	FramesSent int // transmissions, including retries
	FramesAckd int // unique frames acknowledged
	// Retransmits counts extra attempts the ARQ spent.
	Retransmits int
	// FramesFailed counts frames that exhausted their attempt budget.
	FramesFailed int
	ActiveTXs    int
	// ChaosEvents counts fault events injected at this round's boundary.
	ChaosEvents int
	// DeadTXs is the number of transmitters the controller's link-health
	// tracker classifies dead after this round's reallocation.
	DeadTXs int
	// StarvedRXs counts receivers left without any serving transmitter by
	// this round's plan — the paper's graceful-degradation promise is that
	// this stays zero while transmitters remain to serve everyone.
	StarvedRXs int
	// DecisionTime is the wall-clock cost of this round's Reallocate call —
	// the sample the churn benchmarks reduce to p50/p99 decision latency.
	DecisionTime time.Duration
	// SystemThroughput is the analytic Eq. 12 score of the commanded
	// allocation against the true channel at round time.
	SystemThroughput units.BitsPerSecond
}

// RunController drives the asynchronous system: per round it schedules the
// pilot slots, waits (with a deadline) for every receiver's report,
// reallocates, pushes the allocation, sends data frames and counts
// acknowledgements.
func RunController(ctx context.Context, link transport.ControllerLink, hub *Hub,
	ctrl *mac.Controller, cfg ControllerConfig) ([]RoundStats, error) {

	cfg.defaults()
	var out []RoundStats
	// Round metrics reuse one SINR buffer: the per-round scoring path is a
	// //lint:hotpath contract (see roundThroughput).
	sinrScratch := make([]float64, cfg.M)

	for round := 0; round < cfg.Rounds; round++ {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		t := units.Seconds(float64(round) * cfg.RoundDuration.S())
		if cfg.BeforeRound != nil {
			cfg.BeforeRound(round, t)
		}
		hub.AdvanceTime(t)

		// Fault injection happens at the round boundary, before the pilot
		// phase, so this epoch's measurements already see the faults and
		// this epoch's reallocation recovers from them.
		chaosEvents := 0
		if cfg.Injector != nil {
			chaosEvents = cfg.Injector.Apply(round, t, hub)
		}

		// Measurement phase: one pilot slot per TX.
		for j := 0; j < cfg.N; j++ {
			pf, err := ctrl.PilotFrame(j)
			if err != nil {
				return out, err
			}
			wire, err := pf.Serialize()
			if err != nil {
				return out, err
			}
			if err := link.Multicast(wire); err != nil {
				return out, fmt.Errorf("node: pilot multicast: %w", err)
			}
		}

		// Collect reports until all fresh or the deadline passes.
		deadline := time.After(cfg.ReportTimeout)
	reports:
		for !ctrl.HaveFreshReports() {
			select {
			case <-ctx.Done():
				return out, ctx.Err()
			case <-deadline:
				break reports
			case raw, ok := <-link.Uplink():
				if !ok {
					return out, errors.New("node: uplink closed")
				}
				m, _, _, err := frame.DecodeMAC(raw)
				if err != nil {
					continue
				}
				_ = ctrl.HandleUplink(m) // stale/garbled reports are dropped
			}
		}
		rs := RoundStats{Round: round, ReportsOK: ctrl.HaveFreshReports(), ChaosEvents: chaosEvents}

		// Decision phase.
		sw := stats.StartStopwatch()
		plan, err := ctrl.ReallocateContext(ctx)
		rs.DecisionTime = sw.Elapsed()
		if err != nil {
			return out, err
		}
		rs.DeadTXs = len(ctrl.DeadTXs())
		for _, txs := range plan.ServedBy {
			if len(txs) == 0 {
				rs.StarvedRXs++
			}
		}
		af, err := ctrl.AllocationFrame(plan)
		if err != nil {
			return out, err
		}
		wire, err := af.Serialize()
		if err != nil {
			return out, err
		}
		if err := link.Multicast(wire); err != nil {
			return out, fmt.Errorf("node: allocation multicast: %w", err)
		}
		for _, txs := range plan.ServedBy {
			if len(txs) > 0 {
				rs.ActiveTXs += len(txs)
			}
		}

		// Data phase with stop-and-wait-per-round ARQ: send every frame,
		// wait for acknowledgements, retransmit the stragglers until the
		// attempt budget runs out.
		arq := mac.NewARQ(cfg.MaxAttempts)
		send := func(p mac.PendingFrame) error {
			df, err := ctrl.DataFrameWithSeq(plan, p.RX, p.Payload, p.Seq)
			if err != nil {
				return nil // unserved receiver: skip silently
			}
			wire, err := df.Serialize()
			if err != nil {
				return err
			}
			if err := link.Multicast(wire); err != nil {
				return err
			}
			arq.Track(p.Seq, p.RX, p.Payload, p.Attempts)
			rs.FramesSent++
			return nil
		}
		for rx := 0; rx < cfg.M; rx++ {
			if len(plan.ServedBy[rx]) == 0 {
				continue
			}
			want := cfg.FramesPerRX
			if cfg.Demand != nil {
				want = cfg.Demand(rx)
			}
			for k := 0; k < want; k++ {
				payload := []byte(fmt.Sprintf("round %d frame %d for rx %d", round, k, rx))
				df, seq, err := ctrl.DataFrame(plan, rx, payload)
				if err != nil {
					continue
				}
				wire, err := df.Serialize()
				if err != nil {
					return out, err
				}
				if err := link.Multicast(wire); err != nil {
					return out, err
				}
				arq.Track(seq, rx, payload, 0)
				rs.FramesSent++
			}
		}
		for pass := 0; arq.Outstanding() > 0 && pass < cfg.MaxAttempts; pass++ {
			hubFlush := time.After(cfg.AckTimeout / 2)
			ackDeadline := time.After(cfg.AckTimeout)
		acks:
			for arq.Outstanding() > 0 {
				select {
				case <-ctx.Done():
					return out, ctx.Err()
				case <-hubFlush:
					hub.FlushPending()
				case <-ackDeadline:
					break acks
				case raw, ok := <-link.Uplink():
					if !ok {
						return out, errors.New("node: uplink closed")
					}
					m, _, _, err := frame.DecodeMAC(raw)
					if err != nil {
						continue
					}
					if err := ctrl.HandleUplink(m); err != nil {
						continue
					}
					if m.Protocol == mac.ProtoAck {
						if ack, err := mac.DecodeAck(m.Payload); err == nil {
							arq.Ack(ack.Seq)
						}
					}
				}
			}
			// Clear half-assembled beamspots, then retransmit the
			// survivors under their original sequence numbers.
			hub.FlushPending()
			for _, p := range arq.TakeRetryable() {
				if err := send(p); err != nil {
					return out, err
				}
				rs.Retransmits++
			}
		}
		rs.FramesAckd = arq.Delivered()
		rs.FramesFailed = arq.Failed() + arq.Outstanding()

		// Metrics against the true channel.
		trueH, swings := hub.Snapshot()
		env := &alloc.Env{Params: hub.Setup().Params, H: trueH, LED: hub.Setup().LED}
		rs.SystemThroughput = roundThroughput(env, swings, sinrScratch)
		out = append(out, rs)
	}
	return out, nil
}

// roundThroughput scores the round's commanded swings against the true
// channel — the Eq. (5) system throughput the controller reports per round.
// It writes the SINR map into the caller-owned scratch so the per-round
// metrics path never allocates.
//
//lint:hotpath
func roundThroughput(env *alloc.Env, s channel.Swings, sinrScratch []float64) units.BitsPerSecond {
	sinr := channel.SINRInto(sinrScratch, env.Params, env.H, s)
	return channel.SumThroughput(env.Params, sinr)
}
