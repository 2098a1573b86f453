// Package vlcsync implements DenseVLC's non-line-of-sight synchronisation
// (Sec. 6.2): the leading transmitter of a beamspot emits a pilot whose
// light bounces off the floor; the other transmitters of the beamspot
// detect the reflected pilot with their downward-facing photodiodes, decode
// the leader's ID, and start transmitting a fixed guard period after the
// pilot — no wires, no external time server.
//
// The simulation is waveform-level: the pilot is Manchester-modulated at the
// leader's symbol rate, attenuated by the single-bounce floor-reflection
// gain, sampled by each follower at its ADC rate with a random sampling
// phase, corrupted with receiver noise, and located by correlation. The
// residual trigger error therefore emerges from sampling quantisation and
// noise — the same sources that bound the real prototype at 0.575 µs median
// (Table 4).
package vlcsync

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"densevlc/internal/dsp"
	"densevlc/internal/frame"
	"densevlc/internal/units"
)

// Config parameterises one synchronisation exchange.
type Config struct {
	// LeaderID is the identifier the leader embeds in its pilot.
	LeaderID byte
	// SymbolRate is the leader's pilot symbol rate f_tx
	// (100 Ksymbols/s in the paper's evaluation).
	SymbolRate units.Hertz
	// SampleRate is the followers' sampling rate f_rx
	// (1 Msample/s: the PRU-driven ADC). Must exceed 2·SymbolRate.
	SampleRate units.Hertz
	// GuardTime is the pre-defined delay between the pilot end and the
	// synchronised transmission start.
	GuardTime units.Seconds
}

// detectionThreshold is the minimum normalised correlation for a pilot
// detection.
const detectionThreshold = 0.6

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.SymbolRate <= 0:
		return errors.New("vlcsync: symbol rate must be positive")
	case c.SampleRate < 2*c.SymbolRate:
		return fmt.Errorf("vlcsync: sample rate %g Hz below chip rate %g Hz", c.SampleRate.Hz(), 2*c.SymbolRate.Hz())
	case c.GuardTime < 0:
		return errors.New("vlcsync: negative guard time")
	}
	return nil
}

// Follower describes one non-leading transmitter's receive conditions.
type Follower struct {
	// SNR is the pilot's per-sample amplitude signal-to-noise ratio at
	// this follower's photodiode after the analog front-end (linear, not
	// dB): pilot amplitude / noise std. Derived from the floor-reflection
	// gain by the caller (see SNRFromGain).
	SNR float64
	// PathDelay is the optical propagation delay of the bounce path
	// (≈19 ns in the paper's room; negligible but modelled).
	PathDelay units.Seconds
}

// Result is one follower's synchronisation outcome.
type Result struct {
	// Detected reports whether the pilot was found and the leader ID
	// matched.
	Detected bool
	// TriggerTime is the follower's transmission start in true time,
	// relative to the leader's pilot start (only valid when Detected).
	TriggerTime units.Seconds
	// Correlation is the peak normalised correlation observed.
	Correlation float64
}

// Session simulates synchronisation exchanges.
type Session struct {
	cfg      Config
	rng      *rand.Rand
	template []float64 // pilot template at the follower sample rate
	pilot    []float64 // full pilot chips (with leader ID)
	chipDur  float64
	pilotDur float64
}

// NewSession builds a session. The RNG drives sampling phases and noise.
func NewSession(cfg Config, rng *rand.Rand) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	chipDur := 1 / (2 * cfg.SymbolRate.Hz())
	pilot := frame.PilotChips(cfg.LeaderID)
	samplesPerChip := int(math.Round(chipDur * cfg.SampleRate.Hz()))
	if samplesPerChip < 1 {
		samplesPerChip = 1
	}
	return &Session{
		cfg:      cfg,
		rng:      rng,
		template: dsp.Upsample(frame.PilotTemplate(), samplesPerChip),
		pilot:    pilot,
		chipDur:  chipDur,
		pilotDur: float64(len(pilot)) * chipDur,
	}, nil
}

// PilotDuration returns the pilot's on-air duration.
func (s *Session) PilotDuration() units.Seconds { return units.Seconds(s.pilotDur) }

// IdealTrigger returns the leader's own transmission start relative to its
// pilot start: pilot duration plus the guard period. A perfect follower
// triggers at exactly this instant.
func (s *Session) IdealTrigger() units.Seconds { return units.Seconds(s.pilotDur) + s.cfg.GuardTime }

// Synchronize runs one exchange for a single follower and returns its
// outcome. The follower samples a window around the pilot with a random
// ADC phase, locates the pilot by normalised correlation, verifies the
// leader ID, and schedules its trigger a guard period after the pilot end.
func (s *Session) Synchronize(f Follower) Result {
	// Observation window: lead-in silence + pilot + tail.
	const leadChips = 16
	lead := float64(leadChips) * s.chipDur
	window := lead + s.pilotDur + 8*s.chipDur

	phase := s.rng.Float64() / s.cfg.SampleRate.Hz()
	n := int((window - phase) * s.cfg.SampleRate.Hz())
	samples := make([]float64, n)
	noiseStd := 1.0
	amp := f.SNR
	for k := range samples {
		t := phase + float64(k)/s.cfg.SampleRate.Hz()
		// Chip on air at time t (accounting for the bounce delay).
		ct := t - lead - f.PathDelay.S()
		v := 0.0
		if ct >= 0 {
			idx := int(ct / s.chipDur)
			if idx < len(s.pilot) {
				v = amp * s.pilot[idx]
			}
		}
		samples[k] = v + noiseStd*s.rng.NormFloat64()
	}

	peak, peakV := dsp.CorrelationPeak(samples, s.template)
	// Written as !(≥) so that a NaN correlation is not a detection.
	if peak < 0 || !(peakV >= detectionThreshold) {
		return Result{Correlation: peakV}
	}

	// Decode the leader ID at one sample per chip from the peak.
	spc := len(s.template) / len(frame.PilotTemplate())
	chips := dsp.Downsample(samples, spc, peak)
	id, ok := frame.DecodePilotID(chips, 0)
	if !ok || id != s.cfg.LeaderID {
		return Result{Correlation: peakV}
	}

	// The follower believes the pilot started at its detection timestamp;
	// it triggers a guard period after the (known-length) pilot ends.
	detected := phase + float64(peak)/s.cfg.SampleRate.Hz()
	trigger := detected + s.pilotDur + s.cfg.GuardTime.S() - lead
	return Result{Detected: true, TriggerTime: units.Seconds(trigger), Correlation: peakV}
}

// PairwiseDelays runs n independent exchanges for two followers and returns
// the |Δtrigger| of each exchange where both detected the pilot — the
// quantity Table 4 reports the median of.
func (s *Session) PairwiseDelays(a, b Follower, n int) []units.Seconds {
	var out []units.Seconds
	for i := 0; i < n; i++ {
		ra := s.Synchronize(a)
		rb := s.Synchronize(b)
		if !ra.Detected || !rb.Detected {
			continue
		}
		d := ra.TriggerTime - rb.TriggerTime
		if d < 0 {
			d = -d
		}
		out = append(out, d)
	}
	return out
}

// TriggerErrors runs n exchanges for one follower and returns the signed
// trigger error against the leader's ideal start for each detection.
func (s *Session) TriggerErrors(f Follower, n int) []units.Seconds {
	ideal := s.IdealTrigger()
	var out []units.Seconds
	for i := 0; i < n; i++ {
		r := s.Synchronize(f)
		if r.Detected {
			out = append(out, r.TriggerTime-ideal)
		}
	}
	return out
}

// SNRFromGain converts an NLOS channel gain into the follower's per-sample
// amplitude SNR given the transmit optical signal amplitude, photodiode
// responsivity and input-referred noise current std. It is a thin helper so
// callers can feed optics.FloorReflection gains straight in.
func SNRFromGain(gain float64, txOpticalPower units.Watts, responsivity units.AmperesPerWatt, noiseStd units.Amperes) float64 {
	if noiseStd <= 0 {
		return 0
	}
	return gain * txOpticalPower.W() * responsivity.APerW() / noiseStd.A()
}

// BeamspotResult summarises the synchronisation of a whole beamspot.
type BeamspotResult struct {
	// Results holds each follower's outcome, index-aligned with the input.
	Results []Result
	// Synchronized counts followers that detected and matched the leader.
	Synchronized int
	// MaxSpread is the largest pairwise trigger-time difference among the
	// synchronised followers (plus the leader's ideal trigger) — the
	// misalignment the receiver's PHY will see.
	MaxSpread units.Seconds
}

// SynchronizeBeamspot runs one pilot exchange for every follower of a
// beamspot and reports the group outcome, including the worst-case trigger
// spread that bounds the symbol rate per the 10%-overlap criterion.
func (s *Session) SynchronizeBeamspot(followers []Follower) BeamspotResult {
	br := BeamspotResult{Results: make([]Result, len(followers))}
	triggers := []units.Seconds{s.IdealTrigger()} // the leader itself
	for i, f := range followers {
		r := s.Synchronize(f)
		br.Results[i] = r
		if r.Detected {
			br.Synchronized++
			triggers = append(triggers, r.TriggerTime)
		}
	}
	for i := 0; i < len(triggers); i++ {
		for j := i + 1; j < len(triggers); j++ {
			d := triggers[i] - triggers[j]
			if d < 0 {
				d = -d
			}
			if d > br.MaxSpread {
				br.MaxSpread = d
			}
		}
	}
	return br
}
