package frame

import "densevlc/internal/dsp"

// Air-format constants of Table 3: the pilot and preamble are 32 modulation
// symbols each, sent ahead of the MAC frame.
const (
	// PilotSymbols is the length of the synchronisation pilot in symbols.
	PilotSymbols = 32
	// PreambleSymbols is the length of the frame preamble in symbols.
	PreambleSymbols = 32
)

// pilotBits is a 16-bit maximal-transition pattern repeated to 32 symbols;
// rich in edges so the NLOS sync receivers can time-stamp it precisely.
var pilotBits = []byte{
	1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0,
	1, 0, 1, 0, 1, 0, 1, 0,
}

// preambleBits is a 13-bit Barker-like pattern padded to 24 bits, chosen
// for a sharp autocorrelation peak so receivers can locate frame starts in
// noise.
var preambleBits = []byte{
	1, 1, 1, 1, 1, 0, 0, 1, 1, 0, 1, 0, 1,
	0, 0, 1, 1, 1, 0, 1, 1, 0, 0, 0,
}

// PilotChips returns the Manchester chip sequence of the synchronisation
// pilot followed by the leading TX's identifier byte, which non-leading
// transmitters decode to check the pilot is from their appointed leader
// (Sec. 6.2). Total length: 2·(24 + 8) = 64 chips = 32 symbols.
func PilotChips(leaderID byte) []float64 {
	bits := make([]byte, 0, len(pilotBits)+8)
	bits = append(bits, pilotBits...)
	bits = append(bits, dsp.BytesToBits([]byte{leaderID})...)
	return dsp.ManchesterEncode(bits)
}

// PilotTemplate returns the ID-independent prefix of the pilot, used as the
// correlation template for pilot detection.
func PilotTemplate() []float64 { return dsp.ManchesterEncode(pilotBits) }

// DecodePilotID extracts the leader ID from soft pilot chips captured at
// one sample per chip, given the index where the pilot starts. It returns
// false if the capture is too short.
func DecodePilotID(chips []float64, start int) (byte, bool) {
	if start < 0 {
		return 0, false
	}
	idStart := start + 2*len(pilotBits)
	idEnd := idStart + 16 // 8 bits × 2 chips
	if idEnd > len(chips) {
		return 0, false
	}
	bits, _, err := dsp.ManchesterDecode(chips[idStart:idEnd])
	if err != nil {
		return 0, false
	}
	b, err := dsp.BitsToBytes(bits)
	if err != nil {
		return 0, false
	}
	return b[0], true
}

// PreambleChips returns the Manchester chip sequence of the frame preamble
// (48 chips = 24 symbols, padded to the PreambleSymbols budget with idle
// high-low chips by the modulator).
func PreambleChips() []float64 { return dsp.ManchesterEncode(preambleBits) }

// AirBits converts a serialised MAC frame (SFD onward) to the bit stream
// transmitted on air.
func AirBits(macFrame []byte) []byte { return dsp.BytesToBits(macFrame) }

// SerializeMAC returns just the MAC frame bytes (SFD onward) — what the TX
// modulates after pilot and preamble.
func SerializeMAC(m MAC) ([]byte, error) { return m.afterHeaders(0) }
