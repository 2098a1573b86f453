package dsp

import "math"

// CorrelationPeak returns the lag and value of the largest normalised
// cross-correlation of the template against the signal over the lags
// [0, len(signal)−len(template)]:
//
//	c[k] = Σ_i signal[k+i]·template[i] / (‖signal[k:k+n]‖·‖template‖)
//
// Values are in [−1, 1]; 1 means a perfect scaled match. A lag whose window
// has no energy scores 0, and the first lag wins a tie. It returns (−1, 0)
// for an empty template, a signal shorter than the template or a zero-norm
// template. This is the detector receivers use to locate the frame preamble
// and transmitters use to detect the NLOS synchronisation pilot; it never
// materialises the per-lag correlation.
//
// The dot products run eight lags at a time (dot8), but each lag still sums
// signal[k+i]·template[i] for i = 0..n−1 in order into its own accumulator,
// so every c[k] is bit-identical to the one-lag-at-a-time loop.
//
//lint:hotpath
func CorrelationPeak(signal, template []float64) (int, float64) {
	n := len(template)
	if n == 0 || len(signal) < n {
		return -1, 0
	}
	tNorm := 0.0
	for _, t := range template {
		tNorm += t * t
	}
	tNorm = math.Sqrt(tNorm)
	if tNorm == 0 {
		return -1, 0
	}

	lags := len(signal) - n + 1
	// Rolling window energy.
	var wEnergy float64
	for i := 0; i < n; i++ {
		wEnergy += signal[i] * signal[i]
	}
	best, bestV := -1, 0.0
	var dots [8]float64
	for k := 0; k < lags; {
		m := 1
		if lags-k >= len(dots) {
			m = len(dots)
			dots = dot8(signal[k:k+n+len(dots)-1], template)
		} else {
			dot := 0.0
			w := signal[k : k+n]
			for i, t := range template {
				dot += w[i] * t
			}
			dots[0] = dot
		}
		for _, dot := range dots[:m] {
			// While a positive peak is held, a lag with dot ≤ 0 scores ≤ 0
			// (or NaN) and cannot win: skip its Sqrt and divide. A NaN dot
			// fails the test and takes the full path.
			if !(bestV > 0 && dot <= 0) {
				v := 0.0
				if wEnergy > 0 {
					v = dot / (math.Sqrt(wEnergy) * tNorm)
				}
				if best < 0 || v > bestV {
					best, bestV = k, v
				}
			}
			if k+n < len(signal) {
				wEnergy += signal[k+n]*signal[k+n] - signal[k]*signal[k]
				if wEnergy < 0 {
					wEnergy = 0 // guard against floating-point drift
				}
			}
			k++
		}
	}
	return best, bestV
}

// dot8 returns the dot products of t with the eight windows w[r:r+len(t)],
// r = 0..7; len(w) must be len(t)+7. The eight independent accumulators
// hide the floating-point add latency that a single serial chain waits on,
// and each one still sums its products in index order.
func dot8(w, t []float64) [8]float64 {
	n := len(t)
	w0, w1, w2, w3 := w[0:n], w[1:n+1], w[2:n+2], w[3:n+3]
	w4, w5, w6, w7 := w[4:n+4], w[5:n+5], w[6:n+6], w[7:n+7]
	var d0, d1, d2, d3, d4, d5, d6, d7 float64
	for i, x := range t {
		d0 += w0[i] * x
		d1 += w1[i] * x
		d2 += w2[i] * x
		d3 += w3[i] * x
		d4 += w4[i] * x
		d5 += w5[i] * x
		d6 += w6[i] * x
		d7 += w7[i] * x
	}
	return [8]float64{d0, d1, d2, d3, d4, d5, d6, d7}
}
