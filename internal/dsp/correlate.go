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
// The dot products run six lags at a time (dot6), but each lag still sums
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
	var dots [6]float64
	for k := 0; k < lags; {
		m := 1
		if lags-k >= len(dots) {
			m = len(dots)
			dots = dot6(signal[k:k+n+len(dots)-1], template)
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

// dot6 returns the dot products of t with the six windows w[r:r+len(t)],
// r = 0..5; len(w) must be len(t)+5. The six independent accumulators hide
// the floating-point add latency that a single serial chain waits on, and
// each one still sums its products in index order.
//
// Why six: the loop body keeps 6 accumulators, 6 products and the template
// value live, 13 XMM registers. Go's amd64 ABI leaves 15 free (X15 is the
// fixed zero register), so nothing spills. Seven lanes would need all 15
// and eight need 17, which sends two accumulators through the stack on
// every iteration and runs the loop at store-forwarding latency.
func dot6(w, t []float64) [6]float64 {
	n := len(t)
	w0, w1, w2 := w[0:n], w[1:n+1], w[2:n+2]
	w3, w4, w5 := w[3:n+3], w[4:n+4], w[5:n+5]
	var d0, d1, d2, d3, d4, d5 float64
	for i, x := range t {
		d0 += w0[i] * x
		d1 += w1[i] * x
		d2 += w2[i] * x
		d3 += w3[i] * x
		d4 += w4[i] * x
		d5 += w5[i] * x
	}
	return [6]float64{d0, d1, d2, d3, d4, d5}
}
