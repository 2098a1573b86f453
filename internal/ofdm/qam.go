package ofdm

import (
	"errors"
	"fmt"
	"math"
)

// QAM is a square quadrature-amplitude constellation with Gray-mapped axes,
// normalised to unit average energy.
type QAM struct {
	// BitsPerSymbol is log2 of the constellation size (2 → QPSK, 4 → 16-QAM,
	// 6 → 64-QAM).
	BitsPerSymbol int
	side          int     // points per axis
	scale         float64 // normalisation to unit average energy
}

// NewQAM builds a constellation. BitsPerSymbol must be even and ≥ 2.
func NewQAM(bitsPerSymbol int) (*QAM, error) {
	if bitsPerSymbol < 2 || bitsPerSymbol%2 != 0 {
		return nil, fmt.Errorf("ofdm: square QAM needs an even bit count ≥ 2, got %d", bitsPerSymbol)
	}
	side := 1 << (bitsPerSymbol / 2)
	// Average energy of a side-point PAM with levels ±1, ±3, …:
	// E = 2(L²−1)/3 per complex symbol with L = side.
	e := 2 * float64(side*side-1) / 3
	return &QAM{BitsPerSymbol: bitsPerSymbol, side: side, scale: 1 / math.Sqrt(e)}, nil
}

// gray converts a binary index to its Gray code.
func gray(v int) int { return v ^ (v >> 1) }

// grayInverse inverts gray.
func grayInverse(g int) int {
	v := 0
	for ; g != 0; g >>= 1 {
		v ^= g
	}
	return v
}

// axisLevel maps bits (per axis) to a PAM amplitude ±1, ±3, ….
func (q *QAM) axisLevel(idx int) float64 {
	return float64(2*gray(idx) - (q.side - 1))
}

// axisIndex inverts axisLevel with hard decision.
func (q *QAM) axisIndex(level float64) int {
	g := int(math.Round((level + float64(q.side-1)) / 2))
	if g < 0 {
		g = 0
	}
	if g >= q.side {
		g = q.side - 1
	}
	return grayInverse(g)
}

// ErrBitCount reports a bit stream not divisible into symbols.
var ErrBitCount = errors.New("ofdm: bit count not a multiple of bits per symbol")

// Modulate maps bits (one per byte, MSB groups first: half the bits on I,
// half on Q) to constellation points.
func (q *QAM) Modulate(bitstream []byte) ([]complex128, error) {
	if len(bitstream)%q.BitsPerSymbol != 0 {
		return nil, ErrBitCount
	}
	half := q.BitsPerSymbol / 2
	out := make([]complex128, len(bitstream)/q.BitsPerSymbol)
	for s := range out {
		var iIdx, qIdx int
		for b := 0; b < half; b++ {
			iIdx = iIdx<<1 | int(bitstream[s*q.BitsPerSymbol+b])
			qIdx = qIdx<<1 | int(bitstream[s*q.BitsPerSymbol+half+b])
		}
		out[s] = complex(q.axisLevel(iIdx)*q.scale, q.axisLevel(qIdx)*q.scale)
	}
	return out, nil
}

// Demodulate hard-decides symbols back to bits.
func (q *QAM) Demodulate(symbols []complex128) []byte {
	half := q.BitsPerSymbol / 2
	out := make([]byte, 0, len(symbols)*q.BitsPerSymbol)
	for _, s := range symbols {
		iIdx := q.axisIndex(real(s) / q.scale)
		qIdx := q.axisIndex(imag(s) / q.scale)
		for b := half - 1; b >= 0; b-- {
			out = append(out, byte(iIdx>>uint(b)&1))
		}
		for b := half - 1; b >= 0; b-- {
			out = append(out, byte(qIdx>>uint(b)&1))
		}
	}
	return out
}
