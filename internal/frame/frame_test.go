package frame

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"densevlc/internal/rs"
)

func sampleDownlink(payload []byte) Downlink {
	return Downlink{
		Eth: Eth{
			Dst:       [6]byte{0x01, 0x00, 0x5e, 0x00, 0x00, 0x01},
			Src:       [6]byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x01},
			EtherType: EtherTypeVLC,
		},
		PHY: PHY{TXIDMask: MaskOf(7, 13, 6, 1, 0, 12)},
		MAC: MAC{Dst: 1, Src: 0xFFFF, Protocol: 0x0800, Payload: payload},
	}
}

func TestDownlinkRoundTrip(t *testing.T) {
	payload := []byte("DenseVLC beamspot data unit")
	d := sampleDownlink(payload)
	wire, err := d.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	wantLen := EthHeaderLen + TXIDLen + MACHeaderLen + len(payload) + rs.Overhead(len(payload))
	if len(wire) != wantLen {
		t.Fatalf("wire length %d, want %d", len(wire), wantLen)
	}
	got, corrected, err := DecodeDownlink(wire)
	if err != nil {
		t.Fatal(err)
	}
	if corrected != 0 {
		t.Errorf("clean frame corrected %d", corrected)
	}
	if got.Eth != d.Eth || got.PHY != d.PHY {
		t.Errorf("headers mismatch: %+v vs %+v", got, d)
	}
	if got.MAC.Dst != 1 || got.MAC.Src != 0xFFFF || got.MAC.Protocol != 0x0800 {
		t.Errorf("mac header mismatch: %+v", got.MAC)
	}
	if !bytes.Equal(got.MAC.Payload, payload) {
		t.Error("payload mismatch")
	}
}

func TestDownlinkCorrectsPayloadErrors(t *testing.T) {
	payload := make([]byte, 450) // three RS blocks
	rand.New(rand.NewSource(1)).Read(payload)
	d := sampleDownlink(payload)
	wire, err := d.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a byte inside the payload region.
	wire[EthHeaderLen+TXIDLen+MACHeaderLen+100] ^= 0xFF
	got, corrected, err := DecodeDownlink(wire)
	if err != nil {
		t.Fatal(err)
	}
	if corrected != 1 {
		t.Errorf("corrected = %d, want 1", corrected)
	}
	if !bytes.Equal(got.MAC.Payload, payload) {
		t.Error("payload not recovered")
	}
}

func TestDecodeErrors(t *testing.T) {
	payload := []byte("x")
	wire, _ := sampleDownlink(payload).Serialize()

	if _, _, err := DecodeDownlink(wire[:5]); !errors.Is(err, ErrTruncated) {
		t.Errorf("short eth: %v", err)
	}
	if _, _, err := DecodeDownlink(wire[:EthHeaderLen+3]); !errors.Is(err, ErrTruncated) {
		t.Errorf("short phy: %v", err)
	}
	if _, _, err := DecodeDownlink(wire[:EthHeaderLen+TXIDLen+4]); !errors.Is(err, ErrTruncated) {
		t.Errorf("short mac: %v", err)
	}

	bad := append([]byte(nil), wire...)
	bad[12] = 0x08 // wrong ethertype
	if _, _, err := DecodeDownlink(bad); !errors.Is(err, ErrBadType) {
		t.Errorf("ethertype: %v", err)
	}

	bad = append([]byte(nil), wire...)
	bad[EthHeaderLen+TXIDLen] = 0x00 // clobber SFD
	if _, _, err := DecodeDownlink(bad); !errors.Is(err, ErrBadSFD) {
		t.Errorf("sfd: %v", err)
	}
}

func TestSerializeTooLong(t *testing.T) {
	d := sampleDownlink(make([]byte, MaxPayload+1))
	if _, err := d.Serialize(); !errors.Is(err, ErrTooLong) {
		t.Errorf("err = %v", err)
	}
}

func TestDecodeMACLengthBeyondBuffer(t *testing.T) {
	m := MAC{Payload: []byte("abc")}
	raw, err := SerializeMAC(m)
	if err != nil {
		t.Fatal(err)
	}
	// Claim a longer payload than present.
	raw[1], raw[2] = 0x01, 0x00
	if _, _, _, err := DecodeMAC(raw); !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v", err)
	}
}

func TestPHYTargets(t *testing.T) {
	p := PHY{TXIDMask: MaskOf(0, 7, 35, 63, 99, -1)}
	for _, tc := range []struct {
		tx   int
		want bool
	}{{0, true}, {7, true}, {35, true}, {63, true}, {1, false}, {64, false}, {-1, false}} {
		if got := p.Targets(tc.tx); got != tc.want {
			t.Errorf("Targets(%d) = %v", tc.tx, got)
		}
	}
}

func TestMaskOfIgnoresOutOfRange(t *testing.T) {
	if MaskOf(64, -1, 1000) != 0 {
		t.Error("out-of-range indices should contribute nothing")
	}
	if MaskOf(0) != 1 || MaskOf(63) != 1<<63 {
		t.Error("mask bit positions wrong")
	}
}

func TestAirLen(t *testing.T) {
	if got := AirLen(0); got != MACHeaderLen+16 {
		t.Errorf("AirLen(0) = %d", got)
	}
	if got := AirLen(200); got != MACHeaderLen+216 {
		t.Errorf("AirLen(200) = %d", got)
	}
	if got := AirLen(201); got != MACHeaderLen+201+32 {
		t.Errorf("AirLen(201) = %d", got)
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(payload []byte, dst, src, proto uint16, mask uint64) bool {
		if len(payload) > 2000 {
			payload = payload[:2000]
		}
		d := sampleDownlink(payload)
		d.MAC.Dst, d.MAC.Src, d.MAC.Protocol = dst, src, proto
		d.PHY.TXIDMask = mask
		wire, err := d.Serialize()
		if err != nil {
			return false
		}
		got, corrected, err := DecodeDownlink(wire)
		if err != nil || corrected != 0 {
			return false
		}
		return got.MAC.Dst == dst && got.MAC.Src == src &&
			got.MAC.Protocol == proto && got.PHY.TXIDMask == mask &&
			bytes.Equal(got.MAC.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPilotChips(t *testing.T) {
	chips := PilotChips(42)
	if len(chips) != 2*PilotSymbols {
		t.Fatalf("pilot = %d chips, want %d", len(chips), 2*PilotSymbols)
	}
	// Decodeable leader ID at the known offset.
	id, ok := DecodePilotID(chips, 0)
	if !ok || id != 42 {
		t.Errorf("decoded id = %d ok=%v", id, ok)
	}
	// Different leaders share the template prefix but differ afterwards.
	other := PilotChips(43)
	tmpl := PilotTemplate()
	for i := range tmpl {
		if chips[i] != other[i] {
			t.Fatal("template prefix must be leader-independent")
		}
	}
}

func TestDecodePilotIDBounds(t *testing.T) {
	chips := PilotChips(7)
	if _, ok := DecodePilotID(chips, len(chips)); ok {
		t.Error("out-of-range start accepted")
	}
	if _, ok := DecodePilotID(chips[:10], 0); ok {
		t.Error("short capture accepted")
	}
	if _, ok := DecodePilotID(chips, -1); ok {
		t.Error("negative start accepted")
	}
}

func TestPreambleAutocorrelation(t *testing.T) {
	// The preamble must have a dominant autocorrelation peak: the largest
	// off-peak correlation magnitude stays below 60% of the peak.
	chips := PreambleChips()
	if len(chips) != 48 {
		t.Fatalf("preamble = %d chips", len(chips))
	}
	peak := 0.0
	for _, c := range chips {
		peak += c * c
	}
	for lag := 1; lag < len(chips); lag++ {
		v := 0.0
		for i := 0; i+lag < len(chips); i++ {
			v += chips[i] * chips[i+lag]
		}
		if v > 0.6*peak || v < -0.6*peak {
			t.Errorf("autocorrelation at lag %d = %v vs peak %v", lag, v, peak)
		}
	}
}

func TestAirBitsMatchesSerializedMAC(t *testing.T) {
	m := MAC{Dst: 2, Src: 3, Protocol: 4, Payload: []byte{0xAB}}
	raw, err := SerializeMAC(m)
	if err != nil {
		t.Fatal(err)
	}
	bits := AirBits(raw)
	if len(bits) != 8*len(raw) {
		t.Errorf("bits = %d", len(bits))
	}
	if raw[0] != SFD {
		t.Errorf("air frame must start with the SFD, got 0x%02x", raw[0])
	}
}

func TestMaskTargetsDuality(t *testing.T) {
	// Property: Targets(i) is true exactly for the indices MaskOf was
	// given (within range).
	f := func(raw []uint8) bool {
		var idx []int
		for _, r := range raw {
			idx = append(idx, int(r%80)) // some beyond the 64-bit range
		}
		p := PHY{TXIDMask: MaskOf(idx...)}
		want := map[int]bool{}
		for _, i := range idx {
			if i < 64 {
				want[i] = true
			}
		}
		for i := 0; i < 80; i++ {
			if p.Targets(i) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAirLenMatchesSerializedLength(t *testing.T) {
	// Property: AirLen predicts SerializeMAC's output exactly.
	f := func(raw []byte) bool {
		if len(raw) > 3000 {
			raw = raw[:3000]
		}
		out, err := SerializeMAC(MAC{Payload: raw})
		if err != nil {
			return false
		}
		return len(out) == AirLen(len(raw))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// reportSizedMAC is a MAC frame with a 2093-byte payload, the size of a
// building-scale channel report (11 Reed–Solomon blocks).
func reportSizedMAC() MAC {
	payload := make([]byte, 2093)
	rand.New(rand.NewSource(14)).Read(payload)
	return MAC{Dst: 0xFFFF, Src: 3, Protocol: 0x0801, Payload: payload}
}

func TestSerializeMACIsHeaderThenEncodedPayload(t *testing.T) {
	m := reportSizedMAC()
	raw, err := SerializeMAC(m)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{SFD, 0x08, 0x2D, 0xFF, 0xFF, 0x00, 0x03, 0x08, 0x01}
	want = append(want, rs.Encode(m.Payload)...)
	if !bytes.Equal(raw, want) {
		t.Fatal("SerializeMAC is not SFD‖Length‖Dst‖Src‖Protocol‖rs.Encode(Payload)")
	}
}

func TestMACCodecAllocations(t *testing.T) {
	m := reportSizedMAC()
	raw, err := SerializeMAC(m)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := SerializeMAC(m); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("SerializeMAC of a %d-byte payload: %v allocs/op, want ≤ 1", len(m.Payload), n)
	}
	d := sampleDownlink(m.Payload)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := d.Serialize(); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("Downlink.Serialize of a %d-byte payload: %v allocs/op, want ≤ 1", len(m.Payload), n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, _, _, err := DecodeMAC(raw); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("DecodeMAC of a clean %d-byte payload: %v allocs/op, want ≤ 1", len(m.Payload), n)
	}
}
