package mac

import (
	"fmt"

	"densevlc/internal/frame"
	"densevlc/internal/units"
)

// TXAction is what a transmitter must do with a downlink frame.
type TXAction int

// Transmitter actions.
const (
	// TXIgnore: the frame does not address this transmitter.
	TXIgnore TXAction = iota
	// TXTransmit: modulate the MAC frame onto light at the commanded
	// swing (after synchronising with the beamspot leader).
	TXTransmit
	// TXPilotSlot: the epoch's pilot schedule holds a slot for this
	// transmitter; transmit the channel-measurement pilot alone in it.
	TXPilotSlot
	// TXReconfigure: the allocation changed; apply the new command.
	TXReconfigure
)

// TXNode is one transmitter's MAC state: the command it currently executes.
type TXNode struct {
	ID  int
	Cmd TXCommand
}

// NewTXNode builds a transmitter node in illumination-only mode.
func NewTXNode(id int) *TXNode {
	return &TXNode{ID: id, Cmd: TXCommand{TX: id, RX: -1}}
}

// Communicating reports whether a transmitter under the command modulates
// data.
func (c TXCommand) Communicating() bool { return c.RX >= 0 && c.SwingMilliAmps > 0 }

// Swing returns the commanded swing in amps.
func (c TXCommand) Swing() units.Amperes {
	return units.MilliamperesToAmperes(units.Milliamperes(c.SwingMilliAmps))
}

// HandleDownlink processes a controller frame ("each TX checks this field
// and acts upon it accordingly"). Allocation frames update the node's
// command even when the node ends up illumination-only.
func (t *TXNode) HandleDownlink(d frame.Downlink) (TXAction, error) {
	switch d.MAC.Protocol {
	case ProtoAllocation:
		a, err := DecodeAllocation(d.MAC.Payload)
		if err != nil {
			return TXIgnore, err
		}
		for _, cmd := range a.Commands {
			if cmd.TX == t.ID {
				t.Cmd = cmd
				return TXReconfigure, nil
			}
		}
		return TXIgnore, nil
	case ProtoPilot:
		p, err := DecodePilot(d.MAC.Payload)
		if err != nil {
			return TXIgnore, err
		}
		for _, tx := range p.TXs {
			if tx == t.ID {
				return TXPilotSlot, nil
			}
		}
		return TXIgnore, nil
	case ProtoData:
		if !d.PHY.Targets(t.ID) || !t.Cmd.Communicating() {
			return TXIgnore, nil
		}
		return TXTransmit, nil
	default:
		return TXIgnore, fmt.Errorf("mac: TX %d: unexpected downlink protocol 0x%04x", t.ID, d.MAC.Protocol)
	}
}

// RXNode is one receiver's MAC state: it assembles channel reports from
// pilot measurements and acknowledges data frames, deduplicating
// retransmissions.
type RXNode struct {
	ID int
	N  int // number of transmitters
	// gains are the pilot measurements of the current round.
	gains    []float64
	measured []bool
	seq      uint16
	dedup    *DedupWindow
}

// NewRXNode builds a receiver node.
func NewRXNode(id, n int) *RXNode {
	return &RXNode{
		ID: id, N: n,
		gains:    make([]float64, n),
		measured: make([]bool, n),
		dedup:    NewDedupWindow(128),
	}
}

// RecordMeasurement stores the measured link quality for one transmitter's
// pilot slot (the physical measurement comes from the radio simulation or,
// in the prototype, the M2M4 estimator).
func (r *RXNode) RecordMeasurement(tx int, gain float64) error {
	if tx < 0 || tx >= r.N {
		return fmt.Errorf("mac: RX %d: pilot from unknown TX %d", r.ID, tx)
	}
	if gain < 0 {
		gain = 0
	}
	r.gains[tx] = gain
	r.measured[tx] = true
	return nil
}

// RoundComplete reports whether every transmitter has been measured this
// round.
func (r *RXNode) RoundComplete() bool {
	for _, m := range r.measured {
		if !m {
			return false
		}
	}
	return true
}

// BuildReport assembles the channel report and starts a new measurement
// round.
func (r *RXNode) BuildReport() frame.MAC {
	rep := Report{RX: r.ID, Seq: r.seq, Gains: append([]float64(nil), r.gains...)}
	r.seq++
	for i := range r.measured {
		r.measured[i] = false
	}
	return frame.MAC{
		Dst: ControllerAddr, Src: RXAddr(r.ID),
		Protocol: ProtoReport, Payload: rep.Encode(),
	}
}

// HandleData processes a decoded data frame. If it addresses this receiver
// it returns the application payload (sequence header stripped) and the
// acknowledgement frame to send uplink. A duplicate delivery (a
// retransmission whose original already arrived) still produces the
// acknowledgement — the controller may have missed the first — but the
// payload is nil so the application sees each frame once.
func (r *RXNode) HandleData(m frame.MAC) (payload []byte, ack frame.MAC, ok bool) {
	if m.Protocol != ProtoData || (m.Dst != RXAddr(r.ID) && m.Dst != BroadcastAddr) {
		return nil, frame.MAC{}, false
	}
	if len(m.Payload) < 2 {
		return nil, frame.MAC{}, false
	}
	seq := uint16(m.Payload[0])<<8 | uint16(m.Payload[1])
	ackMsg := Ack{RX: r.ID, Seq: seq}
	ack = frame.MAC{
		Dst: ControllerAddr, Src: RXAddr(r.ID),
		Protocol: ProtoAck, Payload: ackMsg.Encode(),
	}
	if !r.dedup.Check(seq) {
		return nil, ack, true
	}
	payload = m.Payload[2:]
	if payload == nil {
		payload = []byte{}
	}
	return payload, ack, true
}
