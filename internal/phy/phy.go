// Package phy simulates DenseVLC's physical layer end to end: several
// transmitters of a beamspot modulate the same MAC frame with individual
// start-time offsets, their light superimposes at the photodiode, and the
// receiver front-end (AC coupling, 7th-order Butterworth, ADC) digitises
// the sum, locates the preamble by correlation, and decodes the
// Manchester/OOK chips back into a frame.
//
// This is where Table 5's result comes from mechanistically: transmitters
// offset by a symbol period or more cancel each other's chips and the frame
// error rate collapses to 100%, while NLOS-synchronised transmitters
// (≈0.6 µs offset at a 5 µs chip) decode almost cleanly.
package phy

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"densevlc/internal/dsp"
	"densevlc/internal/frame"
	"densevlc/internal/units"
)

// TXSignal describes one transmitter's contribution at the receiver.
type TXSignal struct {
	// Amplitude is the received photocurrent amplitude:
	// R·η·r·(Isw/2)²·H, the quantity Eq. (12) squares into signal power.
	Amplitude units.Amperes
	// Offset is the transmitter's start-time error (from the
	// synchronisation method in use). Zero is perfectly aligned.
	Offset units.Seconds
	// Continuous marks a transmitter that free-runs a back-to-back frame
	// stream instead of sending one aligned frame — the behaviour of an
	// unsynchronised BeagleBone in Table 5's second row. Its chip
	// sequence cycles over the whole capture, so it interferes everywhere.
	Continuous bool
	// ClockPPM is the transmitter's symbol-clock frequency error in parts
	// per million (crystal tolerance, ±20 ppm typical). Non-zero drift
	// slides the transmitter's chips against the receiver's sampling over
	// the frame — the effect that keeps two unsynchronised boards from
	// holding a lucky half-chip alignment for a whole frame.
	ClockPPM float64
}

// Config parameterises the link simulation.
type Config struct {
	// SymbolRate is the OOK symbol rate (100 Ksymbols/s in the paper's
	// iperf evaluation; each symbol is two Manchester chips).
	SymbolRate units.Hertz
	// SampleRate is the receiver ADC rate (1 Msample/s).
	SampleRate units.Hertz
	// NoiseStd is the per-sample noise current std
	// (sqrt(N0·B) for the paper's parameters).
	NoiseStd units.Amperes
	// FrontEnd enables the analog front-end chain (AC coupling +
	// Butterworth anti-aliasing) ahead of the ADC. The paper's receiver
	// always has it; tests may disable it to isolate effects.
	FrontEnd bool
	// ADCBits is the ADC resolution (12 for the ADS7883); 0 disables
	// quantisation.
	ADCBits int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.SymbolRate <= 0:
		return errors.New("phy: symbol rate must be positive")
	case c.SampleRate < 2*c.SymbolRate:
		return fmt.Errorf("phy: sample rate %g Hz below chip rate %g Hz", c.SampleRate.Hz(), 2*c.SymbolRate.Hz())
	case c.NoiseStd < 0:
		return errors.New("phy: negative noise std")
	}
	return nil
}

// Link simulates one receiver's downlink.
type Link struct {
	cfg     Config
	rng     *rand.Rand
	chipDur float64
	spc     int // samples per chip (approximate, for the decoder)
}

// NewLink builds a link simulator.
func NewLink(cfg Config, rng *rand.Rand) (*Link, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	chipDur := 1 / (2 * cfg.SymbolRate.Hz())
	spc := int(math.Round(chipDur * cfg.SampleRate.Hz()))
	if spc < 1 {
		spc = 1
	}
	return &Link{cfg: cfg, rng: rng, chipDur: chipDur, spc: spc}, nil
}

// airChips builds the on-air chip sequence of a MAC frame: preamble followed
// by the Manchester-coded frame bytes. (The sync pilot precedes the frame in
// the MAC protocol but is consumed by the transmitters, not the receiver.)
func airChips(mac frame.MAC) ([]float64, int, error) {
	raw, err := frame.SerializeMAC(mac)
	if err != nil {
		return nil, 0, err
	}
	chips := frame.PreambleChips()
	chips = append(chips, dsp.ManchesterEncode(frame.AirBits(raw))...)
	return chips, len(raw), nil
}

// Transmit superimposes the given transmitters all modulating the same MAC
// frame and returns the receiver's ADC sample stream (including lead-in and
// tail noise). The second return is the serialised frame length in bytes,
// which the receiver needs to bound its decode.
func (l *Link) Transmit(mac frame.MAC, txs []TXSignal) ([]float64, int, error) {
	chips, rawLen, err := airChips(mac)
	if err != nil {
		return nil, 0, err
	}

	// Window: lead-in of 24 chips + frame + slack for the largest offset
	// of the frame-aligned transmitters. Continuous (free-running)
	// transmitters repeat forever, so their offset must not stretch the
	// capture — the receiver's budget is the wanted frame's air time.
	lead := 24 * l.chipDur
	maxOff := 0.0
	for _, tx := range txs {
		if !tx.Continuous && tx.Offset.S() > maxOff {
			maxOff = tx.Offset.S()
		}
	}
	dur := lead + float64(len(chips))*l.chipDur + maxOff + 8*l.chipDur
	n := int(dur * l.cfg.SampleRate.Hz())

	fs := l.cfg.SampleRate.Hz()
	phase := l.rng.Float64() / fs
	samples := make([]float64, n)
	// Transmitter-outer synthesis: each samples[k] starts at 0 and adds the
	// transmitters in input order, exactly the sum a sample-outer loop forms,
	// and noise is added last in sample order so the RNG stream is unchanged.
	// The sample clock, sample k's time past the lead-in, is computed once
	// per sample for all transmitters, a block at a time so that it needs no
	// heap buffer.
	var clock [256]float64
	for lo := 0; lo < n; lo += len(clock) {
		block := samples[lo:min(lo+len(clock), n)]
		ck := clock[:len(block)]
		for j := range ck {
			ck[j] = phase + float64(lo+j)/fs - lead
		}
		for _, tx := range txs {
			l.superpose(block, ck, tx, chips)
		}
	}
	if l.cfg.NoiseStd > 0 {
		for k := range samples {
			samples[k] += l.cfg.NoiseStd.A() * l.rng.NormFloat64()
		}
	}

	if l.cfg.FrontEnd {
		// AC coupling removes ambient DC; the Butterworth bounds noise
		// bandwidth ahead of the ADC. Corner frequencies follow the
		// prototype: 1 kHz high-pass, 400 kHz low-pass at 1 Msps.
		ac := dsp.NewACCoupler(1e3, l.cfg.SampleRate.Hz())
		lp, err := dsp.ButterworthLowpass(7, 0.4*l.cfg.SampleRate.Hz(), l.cfg.SampleRate.Hz())
		if err != nil {
			return nil, 0, err
		}
		for i, s := range samples {
			samples[i] = lp.Process(ac.Process(s))
		}
	}
	if l.cfg.ADCBits > 0 {
		// Full scale set to 4x the strongest aggregate signal so the
		// quantiser models resolution loss, not clipping.
		fs := 4 * aggregateAmplitude(txs)
		if fs <= 0 {
			fs = 4 * l.cfg.NoiseStd.A()
		}
		adc := dsp.ADC{Bits: l.cfg.ADCBits, FullScale: fs}
		for i, s := range samples {
			samples[i] = adc.Quantize(s)
		}
	}
	return samples, rawLen, nil
}

// superpose adds one transmitter's light to a block of samples whose times
// past the lead-in are clock. Subtracting the transmitter's offset from the
// clock is the same expression, in the same evaluation order, as
// phase + k/fs − lead − off, so every chip time keeps its bits.
func (l *Link) superpose(block, clock []float64, tx TXSignal, chips []float64) {
	off := tx.Offset.S()
	chipDur := l.chipDur * (1 + tx.ClockPPM*1e-6)
	amp := tx.Amplitude.A()
	block = block[:len(clock)] // lets the loops below index block unchecked
	if tx.Continuous {
		// The chip count floor(ct/chipDur) advances by at most one per
		// sample, so its index into the repeating frame is carried along
		// instead of reduced modulo len(chips) every sample; the block's
		// first sample and any other step take the modulo, which the carried
		// index always equals.
		var c, idx int
		for k, t := range clock {
			next := int(math.Floor((t - off) / chipDur))
			switch {
			case k > 0 && next == c:
			case k > 0 && next == c+1:
				if idx++; idx == len(chips) {
					idx = 0
				}
			default:
				if idx = next % len(chips); idx < 0 {
					idx += len(chips)
				}
			}
			c = next
			block[k] += amp * chips[idx]
		}
		return
	}
	for k, t := range clock {
		ct := t - off
		if ct < 0 {
			continue
		}
		if idx := int(ct / chipDur); idx < len(chips) {
			block[k] += amp * chips[idx]
		}
	}
}

func aggregateAmplitude(txs []TXSignal) float64 {
	a := 0.0
	for _, tx := range txs {
		a += math.Abs(tx.Amplitude.A())
	}
	return a
}

// Receive locates the preamble in the sample stream and decodes the MAC
// frame. rawLen is the expected serialised frame length in bytes (known to
// the receiver from the Length field in steady state; here it bounds the
// capture). It returns the decoded frame and the number of Reed–Solomon
// corrections applied.
func (l *Link) Receive(samples []float64, rawLen int) (frame.MAC, int, error) {
	tmpl := dsp.Upsample(frame.PreambleChips(), l.spc)
	peak, peakV := dsp.CorrelationPeak(samples, tmpl)
	// Written as !(≥) so that a NaN correlation is not a detection.
	if peak < 0 || !(peakV >= 0.5) {
		return frame.MAC{}, 0, fmt.Errorf("%w: best correlation %.2f", ErrNoPreamble, peakV)
	}

	start := peak + len(tmpl)
	need := rawLen * 8 * 2 // bits → chips
	chips := dsp.Downsample(samples, l.spc, start)
	if len(chips) < need {
		return frame.MAC{}, 0, fmt.Errorf("%w: have %d chips, need %d", frame.ErrTruncated, len(chips), need)
	}
	bits, _, err := dsp.ManchesterDecode(chips[:need])
	if err != nil {
		return frame.MAC{}, 0, err
	}
	raw, err := dsp.BitsToBytes(bits)
	if err != nil {
		return frame.MAC{}, 0, err
	}
	mac, corrected, _, err := frame.DecodeMAC(raw)
	return mac, corrected, err
}

// ErrNoPreamble reports that no preamble was found in the capture.
var ErrNoPreamble = errors.New("phy: preamble not detected")

// TransmitReceive runs one frame through the air and back.
func (l *Link) TransmitReceive(mac frame.MAC, txs []TXSignal) (frame.MAC, int, error) {
	samples, rawLen, err := l.Transmit(mac, txs)
	if err != nil {
		return frame.MAC{}, 0, err
	}
	return l.Receive(samples, rawLen)
}

// FrontEndPower is the measured electrical power of the prototype TX
// front-end (Sec. 7.1).
const (
	// FrontEndPowerIllum is the draw in illumination mode.
	FrontEndPowerIllum units.Watts = 2.51
	// FrontEndPowerComm is the draw in 50% duty-cycled communication mode.
	FrontEndPowerComm units.Watts = 3.04
)
