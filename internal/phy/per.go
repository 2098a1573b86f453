package phy

import (
	"bytes"
	"fmt"
	"math/rand"

	"densevlc/internal/frame"
	"densevlc/internal/units"
)

// PERResult summarises a packet-error-rate run (the iperf measurement of
// Table 5).
type PERResult struct {
	Frames    int
	Errors    int
	Corrected int // total Reed–Solomon byte corrections across good frames
	// PER is the frame error rate in [0, 1].
	PER float64
	// Goodput is the application throughput given the run's payload
	// size and per-frame cycle time (air time + ACK turnaround).
	Goodput units.BitsPerSecond
}

// ACKTurnaround is the dead time per data-phase frame cycle: WiFi ACK round
// trip plus MAC guard periods. The prototype's BeagleBone WiFi uplink
// measures ≈17 ms.
const ACKTurnaround units.Seconds = 17e-3

// Goodput is the application throughput of the data phase: payloadLen
// bytes delivered with probability 1−per once per frame cycle, which is the
// pilot + preamble + frame air time at symbolRate plus the ACK turnaround.
func Goodput(payloadLen int, per float64, symbolRate units.Hertz) units.BitsPerSecond {
	symbols := float64(frame.PilotSymbols + frame.PreambleSymbols + 8*frame.AirLen(payloadLen))
	cycle := symbols/symbolRate.Hz() + ACKTurnaround.S()
	return units.BitsPerSecond(float64(8*payloadLen) * (1 - per) / cycle)
}

// PERConfig parameterises a PER run.
type PERConfig struct {
	// PayloadLen is the iperf datagram size per frame (bytes).
	PayloadLen int
	// Frames is the number of frames to send.
	Frames int
}

// MeasurePER sends cfg.Frames random-payload frames through the link and
// reports the frame error rate and goodput; both counts must be positive.
// signals supplies each frame's transmitters, drawing any per-frame timing
// from the link's stream after the frame's payload; the link reads the
// returned slice before the next call, so signals may reuse it.
func (l *Link) MeasurePER(cfg PERConfig, signals func(rng *rand.Rand) []TXSignal) (PERResult, error) {
	if cfg.PayloadLen <= 0 || cfg.Frames <= 0 {
		return PERResult{}, fmt.Errorf("phy: PER run needs a positive payload and frame count, got %d bytes × %d frames", cfg.PayloadLen, cfg.Frames)
	}

	res := PERResult{Frames: cfg.Frames}
	payload := make([]byte, cfg.PayloadLen)

	for f := 0; f < cfg.Frames; f++ {
		_, _ = l.rng.Read(payload) // (*rand.Rand).Read is documented to never fail
		mac := frame.MAC{Dst: 1, Src: 2, Protocol: 0x0800, Payload: append([]byte(nil), payload...)}
		got, corrected, err := l.TransmitReceive(mac, signals(l.rng))
		if err != nil || !bytes.Equal(got.Payload, payload) {
			res.Errors++
			continue
		}
		res.Corrected += corrected
	}

	res.PER = float64(res.Errors) / float64(res.Frames)
	res.Goodput = Goodput(cfg.PayloadLen, res.PER, l.cfg.SymbolRate)
	return res, nil
}
