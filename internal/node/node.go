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
	"densevlc/internal/geom"
	"densevlc/internal/mac"
	"densevlc/internal/stats"
	"densevlc/internal/transport"
	"densevlc/internal/units"
	"densevlc/internal/workload"
)

// runTX is a transmitter node's event loop: it consumes controller frames
// from its link, keeps its MAC state, and acts on the medium. It returns
// when the context is cancelled or the link closes.
func runTX(ctx context.Context, id int, link transport.NodeLink, hub *Hub) error {
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

// runRX is a receiver node's event loop: it assembles channel reports from
// pilot events and acknowledges decoded data frames. It counts each payload
// handed to the application in *delivered, which only this goroutine
// writes; the caller reads it after the goroutine has exited.
func runRX(ctx context.Context, id, numTX int, link transport.NodeLink, hub *Hub, delivered *int) error {
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
			if payload != nil {
				*delivered++
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

// ARQ and report-collection bounds of the controller loop.
const (
	// maxAttempts bounds transmissions per frame (one retransmission).
	maxAttempts = 2
	// reportTimeout bounds the wait for channel reports per round.
	reportTimeout = 2 * time.Second
)

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

// runController drives the asynchronous system: per round it steps the
// workload engine (if any), moves the receivers along their trajectories
// or the engine's slots, replays the chaos schedule against the hub,
// schedules the pilot slots, waits (with a deadline) for every receiver's
// report, reallocates, pushes the allocation, sends data frames and counts
// acknowledgements. cfg carries RunContext's defaults. It records the chaos
// trace, the per-round stats and, under a workload, the engine's per-round
// population steps into res.
func runController(ctx context.Context, cfg Config, link transport.ControllerLink, hub *Hub,
	ctrl *mac.Controller, engine *workload.Engine, res *Result) error {

	injector := chaos.NewInjector(cfg.Chaos)
	res.Trace = injector.Trace()
	var occupied []bool
	pos := make([]geom.Vec, ctrl.M)
	// Round metrics reuse one SINR buffer: the per-round scoring path is a
	// //lint:hotpath contract (see roundThroughput).
	sinrScratch := make([]float64, ctrl.M)

	for round := 0; round < cfg.Rounds; round++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		t := units.Seconds(float64(round) * cfg.RoundDuration.S())
		// Population churn happens at the round boundary, before the
		// receivers move, so this epoch's pilots already see the arrivals
		// and the freed slots. The engine is read only from this goroutine,
		// which keeps its single-goroutine contract.
		if engine != nil {
			res.Steps = append(res.Steps, engine.Step(t, cfg.RoundDuration))
			occupied = engine.ActiveMask(occupied)
			hub.setOccupied(occupied)
		}
		for i := range pos {
			if engine != nil {
				pos[i] = engine.Position(i, t)
			} else {
				pos[i] = cfg.Trajectories[i].Position(t)
			}
		}
		hub.moveTo(pos)

		// Fault injection happens at the round boundary, before the pilot
		// phase, so this epoch's measurements already see the faults and
		// this epoch's reallocation recovers from them.
		chaosEvents := hub.applyChaos(injector, round, t)

		// Measurement phase: one pilot schedule; each TX runs its own slot.
		pf, err := ctrl.PilotFrame()
		if err != nil {
			return err
		}
		wire, err := pf.Serialize()
		if err != nil {
			return err
		}
		if err := link.Multicast(wire); err != nil {
			return fmt.Errorf("node: pilot multicast: %w", err)
		}

		// Collect reports until all fresh or the deadline passes.
		deadline := time.After(reportTimeout)
	reports:
		for !ctrl.HaveFreshReports() {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-deadline:
				break reports
			case raw, ok := <-link.Uplink():
				if !ok {
					return errors.New("node: uplink closed")
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
			return err
		}
		rs.DeadTXs = len(ctrl.DeadTXs())
		for _, txs := range plan.ServedBy {
			if len(txs) == 0 {
				rs.StarvedRXs++
			}
		}
		af, err := ctrl.AllocationFrame(plan)
		if err != nil {
			return err
		}
		wire, err = af.Serialize()
		if err != nil {
			return err
		}
		if err := link.Multicast(wire); err != nil {
			return fmt.Errorf("node: allocation multicast: %w", err)
		}
		for _, txs := range plan.ServedBy {
			if len(txs) > 0 {
				rs.ActiveTXs += len(txs)
			}
		}

		// Data phase with stop-and-wait-per-round ARQ: send every frame,
		// wait for acknowledgements, retransmit the stragglers until the
		// attempt budget runs out.
		arq := mac.NewARQ(maxAttempts)
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
		for rx := 0; rx < ctrl.M; rx++ {
			if len(plan.ServedBy[rx]) == 0 {
				continue
			}
			want := cfg.FramesPerRX
			if engine != nil {
				// A user's own traffic model, capped by FramesPerRX
				// (zero: no cap). Idle and free slots demand nothing.
				want = engine.Demand(rx, t)
				if cfg.FramesPerRX > 0 && want > cfg.FramesPerRX {
					want = cfg.FramesPerRX
				}
			}
			for k := 0; k < want; k++ {
				payload := []byte(fmt.Sprintf("round %d frame %d for rx %d", round, k, rx))
				df, seq, err := ctrl.DataFrame(plan, rx, payload)
				if err != nil {
					continue
				}
				wire, err := df.Serialize()
				if err != nil {
					return err
				}
				if err := link.Multicast(wire); err != nil {
					return err
				}
				arq.Track(seq, rx, payload, 0)
				rs.FramesSent++
			}
		}
		for pass := 0; arq.Outstanding() > 0 && pass < maxAttempts; pass++ {
			hubFlush := time.After(cfg.AckTimeout / 2)
			ackDeadline := time.After(cfg.AckTimeout)
		acks:
			for arq.Outstanding() > 0 {
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-hubFlush:
					hub.FlushPending()
				case <-ackDeadline:
					break acks
				case raw, ok := <-link.Uplink():
					if !ok {
						return errors.New("node: uplink closed")
					}
					m, _, _, err := frame.DecodeMAC(raw)
					if err != nil {
						continue
					}
					if m.Protocol != mac.ProtoAck {
						_ = ctrl.HandleUplink(m) // late reports feed the next epoch; garbled ones are dropped
						continue
					}
					if ack, err := mac.DecodeAck(m.Payload); err == nil {
						arq.Ack(ack.Seq)
					}
				}
			}
			// Clear half-assembled beamspots, then retransmit the
			// survivors under their original sequence numbers.
			hub.FlushPending()
			for _, p := range arq.TakeRetryable() {
				if err := send(p); err != nil {
					return err
				}
				rs.Retransmits++
			}
		}
		rs.FramesAckd = arq.Delivered()
		rs.FramesFailed = arq.Failed() + arq.Outstanding()

		// Metrics against the true channel.
		env, swings := hub.Snapshot()
		rs.SystemThroughput = roundThroughput(env, swings, sinrScratch)
		res.Rounds = append(res.Rounds, rs)
	}
	return nil
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
