package dsp

import "math"

// ADC models the RX front-end's analog-to-digital converter (an ADS7883 in
// the prototype: 12-bit, up to 1 Msps). It clips to the full-scale range
// and quantises to 2^Bits levels.
type ADC struct {
	// Bits is the resolution (12 for the ADS7883).
	Bits int
	// FullScale is the symmetric input range [−FullScale, +FullScale].
	FullScale float64
}

// Quantize converts one analog sample to its quantised value (still as a
// float in volts, snapped to the nearest code).
func (a ADC) Quantize(x float64) float64 {
	if a.Bits <= 0 || a.FullScale <= 0 {
		return x
	}
	if x > a.FullScale {
		x = a.FullScale
	} else if x < -a.FullScale {
		x = -a.FullScale
	}
	levels := float64(int64(1) << uint(a.Bits))
	step := 2 * a.FullScale / levels
	code := math.Round(x / step)
	// Clamp the top code so +FullScale maps inside the range.
	max := levels/2 - 1
	if code > max {
		code = max
	}
	if code < -levels/2 {
		code = -levels / 2
	}
	return code * step
}

// StepSize returns one LSB in volts.
func (a ADC) StepSize() float64 {
	if a.Bits <= 0 || a.FullScale <= 0 {
		return 0
	}
	return 2 * a.FullScale / float64(int64(1)<<uint(a.Bits))
}
