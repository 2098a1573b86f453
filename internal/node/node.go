package node

import (
	"context"
	"errors"
	"fmt"
	"time"

	"densevlc/internal/frame"
	"densevlc/internal/mac"
	"densevlc/internal/scenario"
	"densevlc/internal/sim"
	"densevlc/internal/transport"
	"densevlc/internal/units"
)

// runTX is a transmitter node's event loop: it reads controller frames
// from its link, keeps its MAC state, and acts on the medium. It returns
// when the link closes, which sim.Drive's teardown does before RunContext
// cancels.
func runTX(id int, link transport.TXLink, hub *Hub) error {
	n := mac.NewTXNode(id)
	for {
		raw, err := link.Receive()
		if errors.Is(err, transport.ErrClosed) {
			return nil
		} else if err != nil {
			return err
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
			hub.Configure(id, n.Cmd.RX, n.Cmd.Swing(), n.Cmd.Leader)
		case mac.TXPilotSlot:
			hub.Pilot(id)
		case mac.TXTransmit:
			hub.Transmit(id, d)
		}
	}
}

// pumpUplink hands the controller's uplink frames to uplink, so the data
// phase and the report wait can select on them together with their timers.
// It closes uplink once Receive fails, which it does for good when the
// network closes, and stops without closing it when ctx is done, so a
// cancelled wait reports the cancellation.
func pumpUplink(ctx context.Context, link transport.ControllerLink, uplink chan<- []byte) error {
	for {
		raw, err := link.Receive()
		if err != nil {
			close(uplink)
			if errors.Is(err, transport.ErrClosed) {
				return nil
			}
			return err
		}
		select {
		case uplink <- raw:
		case <-ctx.Done():
			return nil
		}
	}
}

// ARQ and report-collection bounds of the asynchronous epoch.
const (
	// maxAttempts bounds transmissions per frame (one retransmission).
	maxAttempts = 2
	// reportTimeout bounds the wait for channel reports per round.
	reportTimeout = 2 * time.Second
)

// RoundStats is one asynchronous round: sim.Drive's record of it plus the
// ARQ counters of its data phase.
type RoundStats struct {
	sim.RoundMetrics
	FramesSent int // transmissions, including retries
	FramesAckd int // unique frames acknowledged
	// Retransmits counts extra attempts the ARQ spent.
	Retransmits int
	// FramesFailed counts frames that exhausted their attempt budget.
	FramesFailed int
	// SystemThroughput repeats Eval.SumThroughput, the analytic Eq. 12
	// score of the commanded allocation against the true channel. It stays
	// only because bench/ reads it.
	SystemThroughput units.BitsPerSecond
}

// async is the goroutine-per-node Runtime: the transmitter goroutines move
// the frames, the hub answers for the receivers, and the calling goroutine
// waits for the reports and runs the ARQ data phase, taking the uplink from
// pumpUplink.
type async struct {
	ctx    context.Context
	cfg    Config
	p      *sim.Plant
	hub    *Hub
	uplink <-chan []byte
	res    *Result
}

func (a *async) Medium(f func(md *scenario.Medium)) { a.hub.do(f) }

// Measure collects reports until all are fresh or the deadline passes; each
// TX goroutine runs its own pilot slot.
func (a *async) Measure() (bool, error) {
	ctrl := a.p.Controller
	if err := a.ctx.Err(); err != nil {
		return false, err
	}
	deadline := time.After(reportTimeout)
	for !ctrl.HaveFreshReports() {
		select {
		case <-a.ctx.Done():
			return false, a.ctx.Err()
		case <-deadline:
			return false, nil
		case raw, ok := <-a.uplink:
			if !ok {
				return false, errors.New("node: uplink closed")
			}
			m, _, _, err := frame.DecodeMAC(raw)
			if err != nil {
				continue
			}
			_ = ctrl.HandleUplink(m) // stale/garbled reports are dropped
		}
	}
	return true, nil
}

// Dispatch has nothing to wait for: each TX goroutine applies the
// allocation when its copy arrives, before any data frame behind it.
func (a *async) Dispatch() error { return nil }

// Data runs the data phase with stop-and-wait-per-round ARQ: send every
// frame, wait for acknowledgements, retransmit the stragglers until the
// attempt budget runs out. It records the round's ARQ counters, which
// RunContext pairs with Drive's record of the round.
func (a *async) Data(ep *sim.Epoch) error {
	ctrl, hub, plan := a.p.Controller, a.hub, ep.Plan
	var rs RoundStats
	arq := mac.NewARQ(maxAttempts)
	// send multicasts df, the frame p describes, and tracks it; p.Attempts
	// counts its earlier transmissions, so a nonzero one is a retry.
	send := func(df frame.Downlink, p mac.PendingFrame) error {
		wire, err := df.Serialize()
		if err != nil {
			return err
		}
		if err := a.p.Link.Multicast(wire); err != nil {
			return err
		}
		arq.Track(p.Seq, p.RX, p.Payload, p.Attempts)
		rs.FramesSent++
		if p.Attempts > 0 {
			rs.Retransmits++
		}
		return nil
	}
	for rx := 0; rx < ctrl.M; rx++ {
		if len(plan.ServedBy[rx]) == 0 {
			continue
		}
		want := a.cfg.FramesPerRX
		if a.p.Engine != nil {
			// A user's own traffic model, capped by FramesPerRX (zero: no
			// cap). Idle and free slots demand nothing.
			want = a.p.Engine.Demand(rx)
			if a.cfg.FramesPerRX > 0 && want > a.cfg.FramesPerRX {
				want = a.cfg.FramesPerRX
			}
		}
		for k := 0; k < want; k++ {
			payload := []byte(fmt.Sprintf("round %d frame %d for rx %d", ep.Round, k, rx))
			df, seq, err := ctrl.DataFrame(plan, rx, payload)
			if err != nil {
				continue
			}
			if err := send(df, mac.PendingFrame{Seq: seq, RX: rx, Payload: payload}); err != nil {
				return err
			}
		}
	}
	for pass := 0; arq.Outstanding() > 0 && pass < maxAttempts; pass++ {
		hubFlush := time.After(a.cfg.AckTimeout / 2)
		ackDeadline := time.After(a.cfg.AckTimeout)
	acks:
		for arq.Outstanding() > 0 {
			select {
			case <-a.ctx.Done():
				return a.ctx.Err()
			case <-hubFlush:
				hub.FlushPending()
			case <-ackDeadline:
				break acks
			case raw, ok := <-a.uplink:
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
		// Clear half-assembled beamspots, then retransmit the survivors
		// under their original sequence numbers.
		hub.FlushPending()
		for _, p := range arq.TakeRetryable() {
			df, err := ctrl.DataFrameWithSeq(plan, p.RX, p.Payload, p.Seq)
			if err != nil {
				continue // unserved receiver: skip silently
			}
			if err := send(df, p); err != nil {
				return err
			}
		}
	}
	rs.FramesAckd = arq.Delivered()
	rs.FramesFailed = arq.Failed() + arq.Outstanding()
	a.res.Rounds = append(a.res.Rounds, rs)
	return nil
}
