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
// A template that is all ±1 and constant on blocks of g ≥ 2 samples (every
// upsampled Manchester template: the receiver's preamble, the NLOS pilot)
// goes through screenedPeak, an exact screen that bounds every lag's score
// from n/g chip-block sums and correlates in full only the lags that can
// still be the first argmax. Any other template, and any input the screen's
// bound does not cover, takes the full search, scanPeak. Both return the
// same lag and the same bits.
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
	if g := chipWidth(template); g > 1 {
		if best, bestV, _, ok := screenedPeak(signal, template, g, tNorm); ok {
			return best, bestV
		}
	}
	return scanPeak(signal, template, tNorm)
}

// scanPeak is CorrelationPeak's full search. The dot products run six lags
// at a time (dot6), but each lag still sums signal[k+i]·template[i] for
// i = 0..n−1 in order into its own accumulator, so every c[k] is
// bit-identical to the one-lag-at-a-time loop.
func scanPeak(signal, template []float64, tNorm float64) (int, float64) {
	n := len(template)
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
			dots[0] = dotAt(signal, template, k)
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

// dotAt is lag k's dot product, summed in index order as each dot6 lane is.
func dotAt(signal, template []float64, k int) float64 {
	dot := 0.0
	w := signal[k : k+len(template)]
	for i, t := range template {
		dot += w[i] * t
	}
	return dot
}

// chipWidth returns the largest g dividing len(t) such that t is constant on
// each block t[jg:(j+1)g], or 0 if some t[i] is not exactly ±1.
func chipWidth(t []float64) int {
	one, minusOne := math.Float64bits(1), math.Float64bits(-1)
	g := len(t)
	for i, x := range t {
		b := math.Float64bits(x)
		if b != one && b != minusOne {
			return 0
		}
		if i > 0 && b != math.Float64bits(t[i-1]) {
			g = gcd(g, i) // a chip edge at i: the block length divides i
		}
	}
	return g
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

const (
	// screenSums is the stack block of chip-block sums screenedPeak works
	// through: the lags [k0, k0+L) read the sums [k0, k0+L+n−g). A template
	// with n−g > screenSums/2 would leave too few lags per block and takes
	// scanPeak instead.
	screenSums = 512
	// screenCands is the most lags the screen may hand to the exact pass
	// at once; more (near-ties on a flat or periodic capture) take scanPeak.
	screenCands = 32
	// screenMaxAbs bounds |signal|: below it no square, energy, dot or
	// bound overflows, so every score and score bound is finite.
	screenMaxAbs = 1e100
)

// screenedPeak is CorrelationPeak for a ±1 template constant on blocks of g
// samples (g ≥ 2 divides n = len(template)). ok is false, and nothing is
// returned, when the input falls outside what the screen's bound covers: a
// sample that is not finite or exceeds screenMaxAbs, n−g > screenSums/2, or
// more than screenCands candidates. cands is the number of lags the exact
// pass correlated.
//
// The screen. With B[j] = s[j]+…+s[j+g−1] and the chips c_m = t[mg], lag k's
// screened dot is d̃_k = Σ_m c_m·B[k+mg]. Because every t[i] is ±1, every
// product s·t is exact (and ±1 times a rounded sum is the rounded sum of
// the signed terms), so d̃_k and the index-order dot_k that the reference
// computes are two summation trees over the same n numbers x_i = s·t, of
// heights g+n/g−2 and n−1. Each is within γ_{n−1}·Σ|x_i| ≤ γ_{n−1}·n·M of
// the exact sum, M = max|s| (Higham, Accuracy and Stability of Numerical
// Algorithms, §4.2; the error model of addition holds for subnormal results
// too).
// The margin w = 3n²·2⁻⁵³·M covers both errors plus the rounding of d̃_k ± w
// itself, so d̃_k − w ≤ dot_k ≤ d̃_k + w as real numbers. (When n²·2⁻⁵³·M is
// below 2⁻¹⁰⁷⁴, w may round to zero, but then every partial sum is a
// multiple of 2⁻¹⁰⁷⁴ below 2⁻¹⁰²¹ and both sums are exact.) Each lag's
// denominator √E_k·‖t‖ comes from the same rolling energy as in scanPeak,
// and division by a positive number rounds monotonically, so
// lo_k = (d̃_k−w)/den_k ≤ c[k] ≤ hi_k = (d̃_k+w)/den_k; a zero-energy
// window scores exactly 0.
//
// The pruning. Let lo* be the largest lo seen so far and j* the first lag
// holding it. A lag k > j* with hi_k ≤ lo* scores at most c[j*], so it is
// not the first argmax; a kept lag with hi < lo* scores below the peak.
// The first argmax therefore survives, and the exact pass — index-order
// dots and the same first-wins comparison, over the survivors in lag
// order — returns exactly what scanPeak would.
func screenedPeak(signal, template []float64, g int, tNorm float64) (best int, bestV float64, cands int, ok bool) {
	n := len(template)
	span := n - g // sums a lag reads past its own
	if span > screenSums/2 {
		return 0, 0, 0, false
	}
	m := 0.0
	for _, x := range signal {
		a := math.Abs(x)
		if !(a <= screenMaxAbs) {
			return 0, 0, 0, false
		}
		if a > m {
			m = a
		}
	}
	w := screenMargin(n, m)

	type cand struct {
		k       int
		hi, den float64
	}
	var (
		sums [screenSums]float64
		kept [screenCands]cand
		nc   int
		dots [6]float64
	)
	lags := len(signal) - n + 1
	per := (screenSums - span) / len(dots) * len(dots) // lags per block
	var wEnergy float64
	for i := 0; i < n; i++ {
		wEnergy += signal[i] * signal[i]
	}
	maxLo := math.Inf(-1)
	have := 0 // sums already in the block, carried over from the last one
	for k0 := 0; k0 < lags; k0 += per {
		end := min(k0+per, lags)
		b := sums[:end-k0+span]
		blockSums(b[have:], signal[k0+have:], g)
		for k := k0; k < end; {
			r := 1
			if end-k >= len(dots) {
				r = len(dots)
				dots = chipDot6(b[k-k0:k-k0+span+len(dots)], template, g)
			} else {
				dots[0] = chipDotAt(b[k-k0:], template, g)
			}
			for _, d := range dots[:r] {
				// While maxLo > 0, a lag with d̃+w ≤ 0 has hi ≤ 0 and is
				// dropped without its Sqrt and divide.
				if up := d + w; !(maxLo > 0 && up <= 0) {
					hi, den := 0.0, 0.0
					if wEnergy > 0 {
						den = math.Sqrt(wEnergy) * tNorm
						hi = up / den
					}
					if hi > maxLo {
						lo := 0.0
						if den > 0 {
							lo = (d - w) / den
						}
						if lo > maxLo {
							maxLo = lo
							live := 0
							for _, c := range kept[:nc] {
								if c.hi >= maxLo {
									kept[live] = c
									live++
								}
							}
							nc = live
						}
						if nc == len(kept) {
							return 0, 0, 0, false
						}
						kept[nc] = cand{k: k, hi: hi, den: den}
						nc++
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
		have = copy(sums[:], b[min(per, len(b)):])
	}

	best = -1
	for _, c := range kept[:nc] {
		v := 0.0
		if c.den > 0 {
			v = dotAt(signal, template, c.k) / c.den
		}
		if best < 0 || v > bestV {
			best, bestV = c.k, v
		}
	}
	return best, bestV, nc, true
}

// screenMargin is the w of screenedPeak's bound for an n-sample template
// and a signal with max|s| = m: |d̃_k − dot_k| plus the rounding of d̃_k ± w
// is at most 2·γ_{n−1}·n·m + 2⁻⁵²·n·m < 3n²·2⁻⁵³·m.
func screenMargin(n int, m float64) float64 {
	return float64(3*n*n) * 0x1p-53 * m
}

// blockSums sets b[j] = s[j]+…+s[j+g−1], adding one offset at a time to
// every sum so that no addition waits on the one before.
func blockSums(b, s []float64, g int) {
	copy(b, s)
	for i := 1; i < g; i++ {
		x := s[i : i+len(b)]
		for j := range b {
			b[j] += x[j]
		}
	}
}

// chipDot6 returns the screened dots Σ_m t[mg]·b[r+mg] of six consecutive
// lags r = 0..5; len(b) must be len(t)−g+6. It is dot6 over chip-block sums:
// one accumulator per lane, the chips in order.
func chipDot6(b, t []float64, g int) [6]float64 {
	var d0, d1, d2, d3, d4, d5 float64
	for i := 0; i+5 < len(b); i += g {
		x, w := t[i], b[i:i+6]
		d0 += w[0] * x
		d1 += w[1] * x
		d2 += w[2] * x
		d3 += w[3] * x
		d4 += w[4] * x
		d5 += w[5] * x
	}
	return [6]float64{d0, d1, d2, d3, d4, d5}
}

// chipDotAt is one lag's screened dot Σ_m t[mg]·b[mg].
func chipDotAt(b, t []float64, g int) float64 {
	d := 0.0
	for i := 0; i < len(t); i += g {
		d += b[i] * t[i]
	}
	return d
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
