// Package mac implements DenseVLC's MAC protocol (Sec. 3.2): the controller
// announces one pilot schedule per epoch, receivers measure the downlink
// channels and report them back, the decision logic allocates the
// communication power budget among the transmitters, and data frames are
// dispatched to the beamspots with a leading transmitter appointed per
// receiver for NLOS synchronisation.
//
// The package contains pure state machines and message codecs; transports
// (package transport) and radio simulation (packages phy/sim) are injected
// around them.
package mac

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Protocol numbers carried in frame.MAC.Protocol.
const (
	// ProtoData is an application data frame (downlink).
	ProtoData uint16 = 0x0001
	// ProtoPilot is the epoch's channel-measurement pilot schedule.
	ProtoPilot uint16 = 0x0002
	// ProtoReport is an RX→controller channel-quality report (uplink).
	ProtoReport uint16 = 0x0003
	// ProtoAck is an RX→controller acknowledgement (uplink, over WiFi in
	// the prototype).
	ProtoAck uint16 = 0x0004
	// ProtoAllocation is a controller→TX swing-allocation update.
	ProtoAllocation uint16 = 0x0005
)

// BroadcastAddr addresses every node.
const BroadcastAddr uint16 = 0xFFFF

// ControllerAddr is the controller's MAC address.
const ControllerAddr uint16 = 0x0000

// RXAddr returns the MAC address of receiver i (1-based on the wire).
func RXAddr(i int) uint16 { return uint16(0x0100 + i) }

// RXIndex inverts RXAddr: it returns the receiver index addr names, or -1
// when addr is no receiver's. Index 255 is refused too: 0xFF is the
// allocation's illumination-only marker, so no receiver slot carries it.
func RXIndex(addr uint16) int {
	if i := int(addr) - 0x0100; i >= 0 && i < 0xFF {
		return i
	}
	return -1
}

// Codec errors.
var (
	ErrShortMessage = errors.New("mac: message too short")
	ErrBadMessage   = errors.New("mac: malformed message")
	// ErrWireLimit reports a fleet the wire formats cannot carry.
	ErrWireLimit = errors.New("mac: wire limit")
)

// Report is a receiver's channel-quality report: the gain measured per
// transmitter during the pilot slots. Both runtimes fill it with the true
// channel gain times (1 + MeasurementNoise·N(0,1)), clamped at zero.
type Report struct {
	RX    int
	Seq   uint16
	Gains []float64
}

// Encode serialises the report: rx(1) count(1) seq(2) gains(8 each).
func (r Report) Encode() []byte {
	out := make([]byte, 4+8*len(r.Gains))
	out[0] = byte(r.RX)
	out[1] = byte(len(r.Gains))
	binary.BigEndian.PutUint16(out[2:4], r.Seq)
	for i, g := range r.Gains {
		binary.BigEndian.PutUint64(out[4+8*i:], math.Float64bits(g))
	}
	return out
}

// DecodeReport parses an encoded report.
func DecodeReport(data []byte) (Report, error) {
	if len(data) < 4 {
		return Report{}, fmt.Errorf("%w: report header", ErrShortMessage)
	}
	n := int(data[1])
	if len(data) != 4+8*n {
		return Report{}, fmt.Errorf("%w: report claims %d gains in %d bytes", ErrBadMessage, n, len(data))
	}
	r := Report{RX: int(data[0]), Seq: binary.BigEndian.Uint16(data[2:4]), Gains: make([]float64, n)}
	for i := range r.Gains {
		v := math.Float64frombits(binary.BigEndian.Uint64(data[4+8*i:]))
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return Report{}, fmt.Errorf("%w: gain %d not a finite non-negative value", ErrBadMessage, i)
		}
		r.Gains[i] = v
	}
	return r, nil
}

// Ack acknowledges a data frame.
type Ack struct {
	RX  int
	Seq uint16
}

// Encode serialises the ack: rx(1) seq(2).
func (a Ack) Encode() []byte {
	out := make([]byte, 3)
	out[0] = byte(a.RX)
	binary.BigEndian.PutUint16(out[1:3], a.Seq)
	return out
}

// DecodeAck parses an encoded ack.
func DecodeAck(data []byte) (Ack, error) {
	if len(data) != 3 {
		return Ack{}, fmt.Errorf("%w: ack needs 3 bytes, have %d", ErrShortMessage, len(data))
	}
	return Ack{RX: int(data[0]), Seq: binary.BigEndian.Uint16(data[1:3])}, nil
}

// CheckWireLimits reports whether n transmitters and m receiver slots fit
// the wire formats: the downlink PHY header addresses transmitters with a
// 64-bit TX-ID mask, and Report, Ack and Allocation carry the receiver
// index in one byte. Allocation reserves 0xFF for illumination-only
// commands, so the highest servable slot is 254 and m stops at 255. The
// runtimes call it before building a deployment; NewController does not, so
// a controller driven directly may exceed the mask width.
func CheckWireLimits(n, m int) error {
	if n > 64 {
		return fmt.Errorf("%w: %d TXs exceed the 64-bit TX-ID mask", ErrWireLimit, n)
	}
	if m > 255 {
		return fmt.Errorf("%w: %d receiver slots exceed the one-byte RX index (0xFF is the allocation's illumination-only marker, so at most 255 slots)", ErrWireLimit, m)
	}
	return nil
}

// checkTXCount refuses n transmitters whose count does not fit the one-byte
// count field of Allocation and Pilot; byte(n) would wrap and hand every TX a
// frame it rejects.
func checkTXCount(n int) error {
	if n > 255 {
		return fmt.Errorf("%w: %d TXs exceed the one-byte TX count", ErrWireLimit, n)
	}
	return nil
}

// TXCommand is one transmitter's share of an allocation update: the swing
// it must apply and, if it serves a beamspot, the receiver and its role.
type TXCommand struct {
	TX int
	// RX is the served receiver, or -1 for illumination-only.
	RX int
	// SwingMilliAmps is the commanded swing in mA (fits 16 bits).
	SwingMilliAmps uint16
	// Leader marks the beamspot's leading transmitter, which emits the
	// NLOS synchronisation pilot.
	Leader bool
}

// Allocation is the controller's full allocation update.
type Allocation struct {
	Seq      uint16
	Commands []TXCommand
}

// Encode serialises the allocation:
// seq(2) count(1) then per command tx(1) rx(1,0xFF=none) swing(2) flags(1).
func (a Allocation) Encode() []byte {
	out := make([]byte, 3+5*len(a.Commands))
	binary.BigEndian.PutUint16(out[0:2], a.Seq)
	out[2] = byte(len(a.Commands))
	for i, c := range a.Commands {
		p := out[3+5*i:]
		p[0] = byte(c.TX)
		if c.RX < 0 {
			p[1] = 0xFF
		} else {
			p[1] = byte(c.RX)
		}
		binary.BigEndian.PutUint16(p[2:4], c.SwingMilliAmps)
		if c.Leader {
			p[4] = 1
		}
	}
	return out
}

// DecodeAllocation parses an encoded allocation.
func DecodeAllocation(data []byte) (Allocation, error) {
	if len(data) < 3 {
		return Allocation{}, fmt.Errorf("%w: allocation header", ErrShortMessage)
	}
	n := int(data[2])
	if len(data) != 3+5*n {
		return Allocation{}, fmt.Errorf("%w: allocation claims %d commands in %d bytes", ErrBadMessage, n, len(data))
	}
	a := Allocation{Seq: binary.BigEndian.Uint16(data[0:2]), Commands: make([]TXCommand, n)}
	for i := range a.Commands {
		p := data[3+5*i:]
		c := TXCommand{TX: int(p[0]), RX: int(p[1]), SwingMilliAmps: binary.BigEndian.Uint16(p[2:4]), Leader: p[4] == 1}
		if p[1] == 0xFF {
			c.RX = -1
		}
		a.Commands[i] = c
	}
	return a, nil
}

// Pilot is the epoch's pilot schedule: slot k belongs to transmitter TXs[k]
// and carries sequence number Seq+k.
type Pilot struct {
	Seq uint16
	TXs []int
}

// Encode serialises the schedule: seq(2) count(1) tx(1 each).
func (p Pilot) Encode() []byte {
	out := make([]byte, 3+len(p.TXs))
	binary.BigEndian.PutUint16(out[0:2], p.Seq)
	out[2] = byte(len(p.TXs))
	for k, tx := range p.TXs {
		out[3+k] = byte(tx)
	}
	return out
}

// DecodePilot parses an encoded pilot schedule.
func DecodePilot(data []byte) (Pilot, error) {
	if len(data) < 3 {
		return Pilot{}, fmt.Errorf("%w: pilot schedule header", ErrShortMessage)
	}
	n := int(data[2])
	if len(data) != 3+n {
		return Pilot{}, fmt.Errorf("%w: pilot schedule claims %d slots in %d bytes", ErrBadMessage, n, len(data))
	}
	p := Pilot{Seq: binary.BigEndian.Uint16(data[0:2]), TXs: make([]int, n)}
	for k := range p.TXs {
		p.TXs[k] = int(data[3+k])
	}
	return p, nil
}
