package dsp

import "math"

// CrossCorrelate and FindPeak are the reference detector: the normalised
// cross-correlation at every lag, one serial dot product per lag, followed by
// an argmax. CorrelationPeak must return exactly FindPeak(CrossCorrelate(·)).

// CrossCorrelate returns the normalised cross-correlation of the template
// against the signal at every lag in [0, len(signal)−len(template)]:
//
//	c[k] = Σ_i signal[k+i]·template[i] / (‖signal[k:k+n]‖·‖template‖)
//
// Values are in [−1, 1]; 1 means a perfect scaled match.
func CrossCorrelate(signal, template []float64) []float64 {
	n := len(template)
	if n == 0 || len(signal) < n {
		return nil
	}
	tNorm := 0.0
	for _, t := range template {
		tNorm += t * t
	}
	tNorm = math.Sqrt(tNorm)
	if tNorm == 0 {
		return nil
	}

	out := make([]float64, len(signal)-n+1)
	// Rolling window energy.
	var wEnergy float64
	for i := 0; i < n; i++ {
		wEnergy += signal[i] * signal[i]
	}
	for k := range out {
		dot := 0.0
		for i := 0; i < n; i++ {
			dot += signal[k+i] * template[i]
		}
		if wEnergy > 0 {
			out[k] = dot / (math.Sqrt(wEnergy) * tNorm)
		}
		if k+n < len(signal) {
			wEnergy += signal[k+n]*signal[k+n] - signal[k]*signal[k]
			if wEnergy < 0 {
				wEnergy = 0 // guard against floating-point drift
			}
		}
	}
	return out
}

// FindPeak returns the index and value of the maximum of xs, or (-1, 0) for
// an empty slice.
func FindPeak(xs []float64) (int, float64) {
	if len(xs) == 0 {
		return -1, 0
	}
	best, bestV := 0, xs[0]
	for i, v := range xs {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best, bestV
}
