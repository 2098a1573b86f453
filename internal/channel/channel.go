// Package channel ties the optical propagation model to communication
// metrics: the N×M path-loss matrix between transmitters and receivers, the
// signal-to-interference-plus-noise ratio of Eq. (12), Shannon throughput,
// and the M2M4 SNR estimator the receivers run on raw samples (Sec. 7.2).
package channel

import (
	"errors"
	"fmt"
	"math"

	"densevlc/internal/geom"
	"densevlc/internal/optics"
	"densevlc/internal/units"
)

// Params are the link-budget constants of Eq. (12) (Table 1 of the paper).
type Params struct {
	// NoiseDensity is N0, the single-sided spectral power density
	// (7.02e-23 A²/Hz in the paper).
	NoiseDensity units.SquareAmperesPerHertz
	// Bandwidth is the communication bandwidth B (1 MHz).
	Bandwidth units.Hertz
	// Responsivity is the photodiode responsivity R (0.40 A/W).
	Responsivity units.AmperesPerWatt
	// WallPlugEfficiency is the LED's electrical-to-optical efficiency η
	// (0.40), a dimensionless ratio.
	WallPlugEfficiency float64
	// DynamicResistance is the LED dynamic resistance r at the working
	// point, converting swing current to electrical signal power.
	DynamicResistance units.Ohms
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	switch {
	case p.NoiseDensity <= 0:
		return errors.New("channel: noise density must be positive")
	case p.Bandwidth <= 0:
		return errors.New("channel: bandwidth must be positive")
	case p.Responsivity <= 0:
		return errors.New("channel: responsivity must be positive")
	case p.WallPlugEfficiency <= 0:
		return errors.New("channel: wall-plug efficiency must be positive")
	case p.DynamicResistance <= 0:
		return errors.New("channel: dynamic resistance must be positive")
	}
	return nil
}

// NoisePower returns the receiver noise power N0·B.
func (p Params) NoisePower() units.SquareAmperes {
	return units.SquareAmperes(p.NoiseDensity.A2PerHz() * p.Bandwidth.Hz())
}

// Matrix is the line-of-sight path-loss matrix H: H[j][i] is the channel
// gain from TX j to RX i (Eq. 2). Dimensions are N TXs × M RXs.
type Matrix struct {
	N, M int
	H    [][]float64 // H[tx][rx]
}

// NewMatrix allocates an N×M zero matrix.
func NewMatrix(n, m int) *Matrix {
	h := make([][]float64, n)
	buf := make([]float64, n*m)
	for j := range h {
		h[j], buf = buf[:m], buf[m:]
	}
	return &Matrix{N: n, M: m, H: h}
}

// Blocker reports whether the straight-line path between two points is
// occluded. It models the blockage study of Sec. 9: an opaque object breaks
// a LOS link entirely.
type Blocker interface {
	Blocked(from, to geom.Vec) bool
}

// BuildMatrix computes the LOS gain matrix between the given emitters and
// detectors. A non-nil blocker zeroes occluded links.
func BuildMatrix(emitters []optics.Emitter, detectors []optics.Detector, blocker Blocker) *Matrix {
	m := NewMatrix(len(emitters), len(detectors))
	for j, e := range emitters {
		for i, d := range detectors {
			if blocker != nil && blocker.Blocked(e.Pos, d.Pos) {
				continue
			}
			m.H[j][i] = optics.Gain(e, d)
		}
	}
	return m
}

// Gain returns H[tx][rx].
//
//lint:hotpath
func (m *Matrix) Gain(tx, rx int) float64 { return m.H[tx][rx] }

// Column returns the gains from every TX to rx as a fresh slice.
func (m *Matrix) Column(rx int) []float64 {
	col := make([]float64, m.N)
	for j := 0; j < m.N; j++ {
		col[j] = m.H[j][rx]
	}
	return col
}

// BestTX returns the index of the TX with the highest gain to rx, or -1 if
// every gain is zero.
func (m *Matrix) BestTX(rx int) int {
	best, bestG := -1, 0.0
	for j := 0; j < m.N; j++ {
		if m.H[j][rx] > bestG {
			best, bestG = j, m.H[j][rx]
		}
	}
	return best
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.N, m.M)
	for j := range m.H {
		copy(c.H[j], m.H[j])
	}
	return c
}

// Swings is the allocation variable of the optimisation problem: the swing
// current TX j applies to the signal destined for RX k, indexed [tx][rx].
// A TX serving nobody has an all-zero row; the MAC keeps such TXs in
// illumination mode.
type Swings [][]units.Amperes

// NewSwings allocates an all-zero N×M swing matrix.
func NewSwings(n, m int) Swings {
	s := make(Swings, n)
	buf := make([]units.Amperes, n*m)
	for j := range s {
		s[j], buf = buf[:m], buf[m:]
	}
	return s
}

// Clone returns a deep copy.
func (s Swings) Clone() Swings {
	if len(s) == 0 {
		return nil
	}
	c := NewSwings(len(s), len(s[0]))
	for j := range s {
		copy(c[j], s[j])
	}
	return c
}

// TXTotal returns the summed swing of TX j across receivers, the quantity
// bounded by Isw,max in constraint (6).
//
//lint:hotpath
func (s Swings) TXTotal(j int) units.Amperes {
	var t units.Amperes
	for _, v := range s[j] {
		t += v
	}
	return t
}

// CommPower returns the total average communication power P_C,tot of
// Eq. (11): Σ_j r·(Σ_k Isw[j][k] / 2)². The inner sum mirrors constraint (7),
// where a TX's branches modulate the same LED, so their swings add before
// the quadratic.
//
//lint:hotpath
func (s Swings) CommPower(r units.Ohms) units.Watts {
	total := 0.0
	for j := range s {
		half := s.TXTotal(j).A() / 2
		total += r.Ohms() * half * half
	}
	return units.Watts(total)
}

// SINR computes the per-receiver signal-to-interference-plus-noise ratio of
// Eq. (12) for the given path-loss matrix and swing allocation:
//
//	SINR_i = (R·η·r·Σ_j H_{j,i}·(I_sw^{j,i}/2)²)²
//	       / (N0·B + (R·η·r·Σ_{k≠i} Σ_j H_{j,i}·(I_sw^{j,k}/2)²)²)
//
// The bias current carries no data and does not appear.
func SINR(p Params, h *Matrix, s Swings) []float64 {
	if len(s) != h.N {
		//lint:ignore apipanic dimension mismatch is a caller bug; allocations are sized from the same Env as H
		panic(fmt.Sprintf("channel: swing matrix has %d TX rows, gain matrix %d", len(s), h.N))
	}
	out := make([]float64, h.M)
	scale := p.Responsivity.APerW() * p.WallPlugEfficiency * p.DynamicResistance.Ohms()
	noise := p.NoisePower().A2()
	for i := 0; i < h.M; i++ {
		var sig, interf float64
		for j := 0; j < h.N; j++ {
			hji := h.H[j][i]
			if hji == 0 {
				continue
			}
			for k := 0; k < h.M; k++ {
				half := s[j][k].A() / 2
				term := hji * half * half
				if k == i {
					sig += term
				} else {
					interf += term
				}
			}
		}
		sig *= scale
		interf *= scale
		out[i] = sig * sig / (noise + interf*interf)
	}
	return out
}

// Throughput returns the per-receiver Shannon throughput B·log2(1 + SINR_i).
func Throughput(p Params, sinr []float64) []units.BitsPerSecond {
	out := make([]units.BitsPerSecond, len(sinr))
	for i, s := range sinr {
		out[i] = units.BitsPerSecond(p.Bandwidth.Hz() * math.Log2(1+s))
	}
	return out
}

// SumLogThroughput returns the proportional-fair objective of Eq. (5):
// Σ_i log(B·log2(1 + SINR_i)). A receiver with zero throughput drives the
// objective to −Inf, which correctly forces every policy to serve all
// receivers.
//
//lint:hotpath
//lint:ignore unitsafety the sum-of-logs objective is dimensionless
func SumLogThroughput(p Params, sinr []float64) float64 {
	obj := 0.0
	for _, s := range sinr {
		t := p.Bandwidth.Hz() * math.Log2(1+s)
		if t <= 0 {
			return math.Inf(-1)
		}
		obj += math.Log(t)
	}
	return obj
}

// DiskBlocker occludes LOS paths crossing a horizontal opaque disk, a stand-
// in for a person or furniture between the ceiling and the receivers
// (Sec. 9's blockage discussion).
type DiskBlocker struct {
	Center geom.Vec     // centre of the disk
	Radius units.Meters // disk radius
}

// Blocked reports whether the segment from 'from' to 'to' passes through the
// disk's horizontal plane inside its radius.
func (b DiskBlocker) Blocked(from, to geom.Vec) bool {
	dz := to.Z - from.Z
	if dz == 0 {
		return false // path parallel to the disk plane
	}
	t := (b.Center.Z - from.Z) / dz
	if t < 0 || t > 1 {
		return false // plane crossing outside the segment
	}
	x := from.X + t*(to.X-from.X)
	y := from.Y + t*(to.Y-from.Y)
	dx, dy := x-b.Center.X, y-b.Center.Y
	return dx*dx+dy*dy <= b.Radius.M()*b.Radius.M()
}
