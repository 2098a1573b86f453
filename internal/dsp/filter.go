// Package dsp implements the signal-processing blocks of DenseVLC's PHY:
// Manchester/OOK modulation, the 7th-order Butterworth anti-aliasing filter
// of the RX front-end (Sec. 7.1), ADC quantisation, and the fused
// correlation-peak search (CorrelationPeak) that detects the frame preamble
// and the synchronisation pilot.
package dsp

import (
	"fmt"
	"math"
)

// Biquad is a second-order IIR section in direct form II transposed:
//
//	y[n] = b0·x[n] + b1·x[n−1] + b2·x[n−2] − a1·y[n−1] − a2·y[n−2]
type Biquad struct {
	B0, B1, B2 float64
	A1, A2     float64
	z1, z2     float64
}

// Process filters one sample.
func (f *Biquad) Process(x float64) float64 {
	y := f.B0*x + f.z1
	f.z1 = f.B1*x - f.A1*y + f.z2
	f.z2 = f.B2*x - f.A2*y
	return y
}

// Reset clears the filter state.
func (f *Biquad) Reset() { f.z1, f.z2 = 0, 0 }

// FirstOrder is a first-order IIR section y[n] = b0·x[n] + b1·x[n−1] − a1·y[n−1].
type FirstOrder struct {
	B0, B1 float64
	A1     float64
	z      float64
}

// Process filters one sample.
func (f *FirstOrder) Process(x float64) float64 {
	y := f.B0*x + f.z
	f.z = f.B1*x - f.A1*y
	return y
}

// Reset clears the filter state.
func (f *FirstOrder) Reset() { f.z = 0 }

// Section is one stage of an IIR cascade.
type Section interface {
	Process(x float64) float64
	Reset()
}

// Chain is a cascade of IIR sections, processed in order.
type Chain struct {
	sections []Section
}

// Process filters one sample through the whole cascade.
func (c *Chain) Process(x float64) float64 {
	for _, s := range c.sections {
		x = s.Process(x)
	}
	return x
}

// Reset clears all section states.
func (c *Chain) Reset() {
	for _, s := range c.sections {
		s.Reset()
	}
}

// ButterworthLowpass designs an order-n Butterworth low-pass filter with
// cutoff fc at sample rate fs via the bilinear transform with frequency
// prewarping, returned as a cascade of biquads (plus one first-order section
// for odd orders). The RX front-end uses n = 7 before its 1 Msps ADC.
func ButterworthLowpass(order int, fc, fs float64) (*Chain, error) {
	if order < 1 {
		return nil, fmt.Errorf("dsp: filter order %d < 1", order)
	}
	if fc <= 0 || fs <= 0 || fc >= fs/2 {
		return nil, fmt.Errorf("dsp: cutoff %g Hz must be in (0, fs/2) at fs %g Hz", fc, fs)
	}
	k := math.Tan(math.Pi * fc / fs) // prewarped analog cutoff

	var sections []Section
	pairs := order / 2
	for i := 0; i < pairs; i++ {
		// Conjugate pole pair s = −sin θ ± j·cos θ with θ = (2i+1)·π/(2n):
		// section polynomial s² + 2·sinθ·s + 1, so Q = 1/(2·sin θ).
		theta := float64(2*i+1) * math.Pi / (2 * float64(order))
		q := 1 / (2 * math.Sin(theta))
		norm := 1 / (1 + k/q + k*k)
		sections = append(sections, &Biquad{
			B0: k * k * norm,
			B1: 2 * k * k * norm,
			B2: k * k * norm,
			A1: 2 * (k*k - 1) * norm,
			A2: (1 - k/q + k*k) * norm,
		})
	}
	if order%2 == 1 {
		// Real pole.
		sections = append(sections, &FirstOrder{
			B0: k / (k + 1),
			B1: k / (k + 1),
			A1: (k - 1) / (k + 1),
		})
	}
	return &Chain{sections: sections}, nil
}

// ACCoupler is the high-pass AC-coupling stage of the RX front-end: a
// single-pole high-pass that removes the DC ambient-light component so the
// amplifier sees only the modulated signal.
type ACCoupler struct {
	alpha  float64
	prevX  float64
	prevY  float64
	primed bool
}

// NewACCoupler builds an AC coupler with the given corner frequency at the
// given sample rate (y[n] = α·(y[n−1] + x[n] − x[n−1])).
func NewACCoupler(fc, fs float64) *ACCoupler {
	rc := 1 / (2 * math.Pi * fc)
	dt := 1 / fs
	return &ACCoupler{alpha: rc / (rc + dt)}
}

// Process filters one sample.
func (a *ACCoupler) Process(x float64) float64 {
	if !a.primed {
		// Start from steady state at the first sample's DC level so a
		// constant input yields zero immediately instead of a long decay.
		a.prevX, a.prevY = x, 0
		a.primed = true
		return 0
	}
	y := a.alpha * (a.prevY + x - a.prevX)
	a.prevX, a.prevY = x, y
	return y
}

// Reset clears the coupler state.
func (a *ACCoupler) Reset() { a.prevX, a.prevY, a.primed = 0, 0, false }

// FrequencyResponse returns the magnitude response |H(e^{jω})| of a chain at
// frequency f for sample rate fs, measured empirically by filtering a
// sinusoid and comparing RMS amplitudes (robust for any cascade).
func FrequencyResponse(c *Chain, f, fs float64, cycles int) float64 {
	if cycles < 8 {
		cycles = 8
	}
	c.Reset()
	n := int(float64(cycles) * fs / f)
	// Let transients settle over the first half, measure over the second.
	var sumIn, sumOut float64
	half := n / 2
	for i := 0; i < n; i++ {
		x := math.Sin(2 * math.Pi * f * float64(i) / fs)
		y := c.Process(x)
		if i >= half {
			sumIn += x * x
			sumOut += y * y
		}
	}
	c.Reset()
	if sumIn == 0 {
		return 0
	}
	return math.Sqrt(sumOut / sumIn)
}
