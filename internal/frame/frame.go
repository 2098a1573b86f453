// Package frame implements DenseVLC's frame formats (Table 3 of the paper).
//
// Two distinct encodings share the MAC frame:
//
//   - The wire (downlink) format the controller multicasts to the VLC TXs
//     over Ethernet/UDP: an Ethernet-style header, the 8-byte TX-ID mask
//     selecting which transmitters relay the frame, and the MAC frame.
//
//   - The air format a TX modulates onto light: pilot chips + preamble
//     chips + the Manchester-coded MAC frame (SFD, Length, Dst, Src,
//     Protocol, Payload, Reed–Solomon parity).
//
// Every header has a fixed size, so serialisation writes a frame in place
// in one allocation, and decoding yields typed errors (ErrTruncated,
// ErrBadSFD, …) that the MAC uses as explicit decode feedback.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"

	"densevlc/internal/rs"
)

// Field sizes of Table 3, in bytes.
const (
	EthHeaderLen = 14 // dst(6) + src(6) + ethertype(2)
	TXIDLen      = 8
	SFDLen       = 1
	LengthLen    = 2
	AddrLen      = 2
	ProtocolLen  = 2
	// MACHeaderLen is SFD through Protocol.
	MACHeaderLen = SFDLen + LengthLen + 2*AddrLen + ProtocolLen
	// MaxPayload bounds the payload so Length always fits 16 bits even
	// with parity appended.
	MaxPayload = 60000
)

// SFD is the start-of-frame delimiter byte (the classic 0x7E flag).
const SFD = 0x7E

// EtherTypeVLC is the ethertype the controller stamps on downlink frames.
const EtherTypeVLC = 0x88B5 // IEEE 802 local experimental

// Decode errors — the explicit feedback the MAC reacts to.
var (
	ErrTruncated = errors.New("frame: truncated")
	ErrBadSFD    = errors.New("frame: bad start-of-frame delimiter")
	ErrBadType   = errors.New("frame: unexpected ethertype")
	ErrTooLong   = errors.New("frame: payload exceeds MaxPayload")
)

// Eth is the Ethernet-style encapsulation of downlink frames.
type Eth struct {
	Dst, Src  [6]byte
	EtherType uint16
}

// decodeEth parses an Ethernet header, returning the remainder.
func decodeEth(data []byte) (Eth, []byte, error) {
	if len(data) < EthHeaderLen {
		return Eth{}, nil, fmt.Errorf("%w: eth header needs %d bytes, have %d", ErrTruncated, EthHeaderLen, len(data))
	}
	var e Eth
	copy(e.Dst[:], data[0:6])
	copy(e.Src[:], data[6:12])
	e.EtherType = binary.BigEndian.Uint16(data[12:14])
	if e.EtherType != EtherTypeVLC {
		return Eth{}, nil, fmt.Errorf("%w: 0x%04x", ErrBadType, e.EtherType)
	}
	return e, data[EthHeaderLen:], nil
}

// PHY is the downlink PHY header: the 64-bit mask of transmitter IDs that
// must relay this frame ("each TX checks this field and acts upon it"),
// with bit i addressing TX index i.
type PHY struct {
	TXIDMask uint64
}

// Targets reports whether TX index i (0-based, < 64) is addressed.
func (p PHY) Targets(i int) bool {
	if i < 0 || i >= 64 {
		return false
	}
	return p.TXIDMask&(1<<uint(i)) != 0
}

// MaskOf builds a TX-ID mask from transmitter indices; out-of-range indices
// are ignored.
func MaskOf(txs ...int) uint64 {
	var m uint64
	for _, i := range txs {
		if i >= 0 && i < 64 {
			m |= 1 << uint(i)
		}
	}
	return m
}

func decodePHY(data []byte) (PHY, []byte, error) {
	if len(data) < TXIDLen {
		return PHY{}, nil, fmt.Errorf("%w: phy header needs %d bytes, have %d", ErrTruncated, TXIDLen, len(data))
	}
	return PHY{TXIDMask: binary.BigEndian.Uint64(data)}, data[TXIDLen:], nil
}

// MAC is the frame the receivers decode: SFD, Length, Dst, Src, Protocol,
// Payload, Reed–Solomon parity (16 bytes per 200-byte payload block).
type MAC struct {
	Dst      uint16
	Src      uint16
	Protocol uint16
	Payload  []byte
}

// afterHeaders allocates head bytes for outer headers followed by m's air
// form, and writes m in place behind them.
func (m MAC) afterHeaders(head int) ([]byte, error) {
	if len(m.Payload) > MaxPayload {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooLong, len(m.Payload))
	}
	out := make([]byte, head+AirLen(len(m.Payload)))
	body := out[head:]
	body[0] = SFD
	binary.BigEndian.PutUint16(body[1:3], uint16(len(m.Payload)))
	binary.BigEndian.PutUint16(body[3:5], m.Dst)
	binary.BigEndian.PutUint16(body[5:7], m.Src)
	binary.BigEndian.PutUint16(body[7:9], m.Protocol)
	rs.EncodeInto(body[MACHeaderLen:], m.Payload)
	return out, nil
}

// AirLen returns the number of bytes the MAC frame occupies on air for a
// payload of the given length.
func AirLen(payloadLen int) int {
	return MACHeaderLen + payloadLen + rs.Overhead(payloadLen)
}

// DecodeMAC parses a MAC frame from data (starting at the SFD), correcting
// payload errors with the Reed–Solomon parity. It returns the frame, the
// number of corrected byte errors, and the bytes consumed.
func DecodeMAC(data []byte) (m MAC, corrected, consumed int, err error) {
	if len(data) < MACHeaderLen {
		return MAC{}, 0, 0, fmt.Errorf("%w: mac header needs %d bytes, have %d", ErrTruncated, MACHeaderLen, len(data))
	}
	if data[0] != SFD {
		return MAC{}, 0, 0, fmt.Errorf("%w: 0x%02x", ErrBadSFD, data[0])
	}
	plen := int(binary.BigEndian.Uint16(data[1:3]))
	if plen > MaxPayload {
		return MAC{}, 0, 0, fmt.Errorf("%w: length field %d", ErrTooLong, plen)
	}
	m.Dst = binary.BigEndian.Uint16(data[3:5])
	m.Src = binary.BigEndian.Uint16(data[5:7])
	m.Protocol = binary.BigEndian.Uint16(data[7:9])

	codedLen := plen + rs.Overhead(plen)
	if len(data) < MACHeaderLen+codedLen {
		return MAC{}, 0, 0, fmt.Errorf("%w: body needs %d bytes, have %d", ErrTruncated, MACHeaderLen+codedLen, len(data))
	}
	payload, corrected, err := rs.Decode(data[MACHeaderLen:MACHeaderLen+codedLen], plen)
	if err != nil {
		return MAC{}, 0, 0, err
	}
	m.Payload = payload
	return m, corrected, MACHeaderLen + codedLen, nil
}

// Downlink is the full controller→TX wire frame.
type Downlink struct {
	Eth Eth
	PHY PHY
	MAC MAC
}

// Serialize assembles the wire frame in one allocation: every header's size
// is fixed, so the three are written in place.
func (d Downlink) Serialize() ([]byte, error) {
	out, err := d.MAC.afterHeaders(EthHeaderLen + TXIDLen)
	if err != nil {
		return nil, err
	}
	copy(out[0:6], d.Eth.Dst[:])
	copy(out[6:12], d.Eth.Src[:])
	binary.BigEndian.PutUint16(out[12:14], d.Eth.EtherType)
	binary.BigEndian.PutUint64(out[EthHeaderLen:], d.PHY.TXIDMask)
	return out, nil
}

// DecodeDownlink parses a wire frame, reporting the layers and the number
// of payload byte errors the Reed–Solomon stage corrected.
func DecodeDownlink(data []byte) (Downlink, int, error) {
	var d Downlink
	eth, rest, err := decodeEth(data)
	if err != nil {
		return d, 0, err
	}
	phy, rest, err := decodePHY(rest)
	if err != nil {
		return d, 0, err
	}
	mac, corrected, _, err := DecodeMAC(rest)
	if err != nil {
		return d, 0, err
	}
	d.Eth, d.PHY, d.MAC = eth, phy, mac
	return d, corrected, nil
}
