// Package ofdm implements the DCO-OFDM physical layer the paper names as
// the natural upgrade once faster front-ends are available (Sec. 9,
// "advanced hardware ... exploit advanced modulation schemes such as OFDM
// in VLC"): a radix-2 FFT, Hermitian-symmetric subcarrier mapping so the
// time-domain signal is real (intensity modulation cannot transmit complex
// waveforms), a DC bias with zero-clipping (the "DCO" part), cyclic
// prefixes against dispersion, and square QAM constellations with a
// single-tap equaliser for a known flat channel gain.
package ofdm

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// FFT computes the in-place radix-2 decimation-in-time FFT of x. The length
// must be a power of two.
func FFT(x []complex128) error {
	return transform(x, false)
}

// IFFT computes the in-place inverse FFT of x (normalised by 1/N).
func IFFT(x []complex128) error {
	if err := transform(x, true); err != nil {
		return err
	}
	n := complex(float64(len(x)), 0)
	for i := range x {
		x[i] /= n
	}
	return nil
}

func transform(x []complex128, inverse bool) error {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n&(n-1) != 0 {
		return fmt.Errorf("ofdm: FFT length %d is not a power of two", n)
	}

	// Bit-reversal permutation.
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}

	// Butterflies.
	for size := 2; size <= n; size <<= 1 {
		angle := -2 * math.Pi / float64(size)
		if inverse {
			angle = -angle
		}
		wBase := cmplx.Exp(complex(0, angle))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			half := size / 2
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wBase
			}
		}
	}
	return nil
}

// DFTNaive is the O(N²) reference transform used to validate the FFT in
// tests.
func DFTNaive(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for t := 0; t < n; t++ {
			s += x[t] * cmplx.Exp(complex(0, -2*math.Pi*float64(k*t)/float64(n)))
		}
		out[k] = s
	}
	return out
}
