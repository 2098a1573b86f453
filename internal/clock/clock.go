// Package clock models the timing subsystem of DenseVLC's transmitters:
// the trigger-time error of the synchronisation methods the paper compares
// (Sec. 6.1):
//
//   - no synchronisation: each BeagleBone starts transmitting when the
//     Ethernet frame arrives, so trigger times spread by network/OS jitter
//     plus a full symbol period of phase ambiguity;
//
//   - NTP/PTP: transmitters wait for an absolute start time, leaving the
//     residual clock-discipline error plus OS wake-up jitter, and about
//     half a symbol period of loop-granularity ambiguity.
//
// The NLOS-VLC method of Sec. 6.2 is modelled mechanistically (waveform
// level) in package vlcsync; this package covers the clock-based baselines.
//
// Times carry units.Seconds and rates units.Hertz; only the internal
// jitter constants and dimensionless ratios stay bare float64.
package clock

import (
	"fmt"
	"math"
	"math/rand"

	"densevlc/internal/units"
)

// Method identifies a synchronisation scheme of the paper's comparison.
type Method int

// The three methods of Table 4.
const (
	// MethodNone: transmit on Ethernet-frame arrival.
	MethodNone Method = iota
	// MethodNTPPTP: wait until an absolute NTP/PTP-disciplined time.
	MethodNTPPTP
	// MethodNLOSVLC: trigger on the NLOS pilot (simulated in vlcsync).
	MethodNLOSVLC
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodNone:
		return "no synchronization"
	case MethodNTPPTP:
		return "NTP/PTP"
	case MethodNLOSVLC:
		return "NLOS VLC"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Jitter parameters calibrated against Table 4's measurements (per-TX,
// seconds). See DESIGN.md for the calibration argument.
const (
	// OSJitterStd is the per-transmitter network-delivery/OS-scheduling
	// spread without synchronisation. The pairwise median |Δ| of two
	// Gaussians is 0.954·σ; 10.5 µs reproduces Table 4's 10.040 µs at
	// 100 Ksymbols/s.
	OSJitterStd = 10.5e-6
	// PTPResidualStd is the residual clock error after NTP/PTP
	// discipline plus the OS wake-up jitter of the wait-until loop;
	// 4.8 µs reproduces Table 4's 4.565 µs median at 100 Ksymbols/s.
	PTPResidualStd = 4.8e-6
	// PTPLoopFraction is the fraction of a symbol period of residual
	// start ambiguity under NTP/PTP: the transmit loop polls the
	// disciplined clock once per symbol, so starts quantise to about half
	// a period on average.
	PTPLoopFraction = 0.5
)

// TriggerError draws the trigger-time error of one transmitter for a
// transmission at the given symbol rate, under the given method. The error
// is relative to the ideal common start instant; pairwise synchronisation
// delay is the difference of two draws.
//
// MethodNLOSVLC is not handled here — its error comes from the waveform
// simulation in package vlcsync; calling it panics.
func TriggerError(rng *rand.Rand, m Method, symbolRate units.Hertz) units.Seconds {
	symbolPeriod := 1 / symbolRate.Hz()
	switch m {
	case MethodNone:
		// Frame delivery jitter plus a full symbol of phase ambiguity:
		// the TX's symbol loop starts wherever it happens to be.
		return units.Seconds(OSJitterStd*rng.NormFloat64() + rng.Float64()*symbolPeriod)
	case MethodNTPPTP:
		return units.Seconds(PTPResidualStd*rng.NormFloat64() + rng.Float64()*symbolPeriod*PTPLoopFraction)
	default:
		//lint:ignore apipanic documented API contract: MethodNLOSVLC is modelled by package vlcsync, not here
		panic(fmt.Sprintf("clock: TriggerError does not model %v", m))
	}
}

// MemberOffset draws the data-phase trigger offset of a non-leader beamspot
// member relative to its leader under method m, at the given symbol rate,
// and reports whether the member free-runs (no common start at all). Under
// NLOS-VLC the member triggers on the leader's pilot, leaving the 1 Msps
// sampling-phase quantisation plus noise wobble (the vlcsync-measured
// ≈0.6 µs scale); under NTP/PTP it keeps |TriggerError|; unsynchronised
// boards free-run with up to 20 ms of frame-arrival spread.
func MemberOffset(rng *rand.Rand, m Method, symbolRate units.Hertz) (units.Seconds, bool) {
	switch m {
	case MethodNLOSVLC:
		return units.Seconds(1.2e-6 * rng.Float64()), false
	case MethodNTPPTP:
		return units.Seconds(math.Abs(TriggerError(rng, MethodNTPPTP, symbolRate).S())), false
	default:
		return units.Seconds(20e-3 * rng.Float64()), true
	}
}

// PairwiseDelay draws the measured synchronisation delay between two
// transmitters: |err₁ − err₂|.
func PairwiseDelay(rng *rand.Rand, m Method, symbolRate units.Hertz) units.Seconds {
	d := TriggerError(rng, m, symbolRate) - TriggerError(rng, m, symbolRate)
	if d < 0 {
		d = -d
	}
	return d
}

// MedianPairwiseDelay estimates the median synchronisation delay over n
// trials, mirroring the paper's measurement procedure (median over a frame,
// averaged over 10 frames).
func MedianPairwiseDelay(rng *rand.Rand, m Method, symbolRate units.Hertz, n int) units.Seconds {
	if n < 1 {
		n = 1
	}
	delays := make([]float64, n)
	for i := range delays {
		delays[i] = PairwiseDelay(rng, m, symbolRate).S()
	}
	// Median by partial sort (n is small; a full sort is fine).
	return units.Seconds(median(delays))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// MaxSymbolRate returns the highest symbol rate at which two transmitters
// synchronised with the given median delay keep symbol overlap within the
// given fraction of the symbol width: rate = fraction / delay. This is the
// paper's 10% criterion, by which NTP/PTP's ≈7 µs delay at its operating
// point caps the rate at 14.28 Ksymbols/s (Sec. 6.1).
func MaxSymbolRate(medianDelay units.Seconds, maxOverlapFraction float64) units.Hertz {
	if medianDelay <= 0 {
		return 0
	}
	return units.Hertz(maxOverlapFraction / medianDelay.S())
}
