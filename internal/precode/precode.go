// Package precode implements a zero-forcing MU-MISO precoding baseline —
// the approach of the precoding line of work the paper compares against
// conceptually (Sun et al., Zhang et al.; Sec. 10): instead of assigning
// each transmitter to one receiver, every active transmitter sends a
// weighted combination of all receivers' streams with weights chosen to
// null inter-user interference at every photodiode.
//
// The precoder works in the paper's power-surrogate domain: transmitter j
// radiates q_{j,k} = r·(I_{j,k}/2)² per receiver stream k (the quantity
// Eq. 12 propagates through the channel), with the stream's sign carried by
// antipodal modulation. Choosing Q = β·H⁺ makes the received mixture
// c·(H·Q) = c·β·I — interference-free by construction. The scale β is set
// by the communication power budget and the per-TX swing bound:
//
//	P_C,tot = Σ_j r·(Σ_k |I_{j,k}|/2)² = β·Σ_j (Σ_k √|W_{j,k}|)²
//
// Zero-forcing spends power steering nulls, so it wins where DenseVLC is
// interference-limited and loses where it is noise-limited — the trade-off
// the PrecodingStudy experiment quantifies.
package precode

import (
	"errors"
	"fmt"
	"math"

	"densevlc/internal/alloc"
	"densevlc/internal/linalg"
	"densevlc/internal/units"
)

// Result describes a zero-forcing solution.
type Result struct {
	// Weights is the N×M pseudo-inverse-based precoding matrix W.
	Weights *linalg.Matrix
	// Beta is the power scale applied to W.
	Beta float64
	// SINR is the per-receiver linear SINR (equal across receivers under
	// pure ZF), dimensionless.
	SINR []float64
	// Throughput is the per-receiver Shannon throughput.
	Throughput []units.BitsPerSecond
	// SumThroughput is the system throughput.
	SumThroughput units.BitsPerSecond
	// CommPower is the consumed communication power.
	CommPower units.Watts
	// SwingBound reports whether the per-TX swing limit (not the budget)
	// capped the solution.
	SwingBound bool
}

// Errors.
var (
	// ErrRankDeficient reports a channel matrix whose rows are not
	// independent (co-located receivers): ZF cannot separate the users.
	ErrRankDeficient = errors.New("precode: channel matrix is rank deficient")
)

// ZeroForcing computes the zero-forcing solution for the environment under
// the given communication power budget.
func ZeroForcing(env *alloc.Env, budget units.Watts) (Result, error) {
	if err := alloc.CheckRequest(env, budget); err != nil {
		return Result{}, err
	}
	n, m := env.N(), env.M()

	// H as an M×N wide matrix (receivers × transmitters).
	h := linalg.New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			h.Set(i, j, env.H.Gain(j, i))
		}
	}
	w, err := linalg.PseudoInverse(h, 0)
	if err != nil {
		return Result{}, fmt.Errorf("%w: %v", ErrRankDeficient, err)
	}

	// Power scale: P_tot(β) = β·S with S = Σ_j (Σ_k √|W_jk|)², and the
	// per-TX swing bound Σ_k |I_jk| = 2·√(β/r)·Σ_k √|W_jk| ≤ Isw,max.
	r := env.Params.DynamicResistance.Ohms()
	s := 0.0
	maxRowRoot := 0.0
	for j := 0; j < n; j++ {
		rowRoot := 0.0
		for k := 0; k < m; k++ {
			rowRoot += math.Sqrt(math.Abs(w.At(j, k)))
		}
		s += rowRoot * rowRoot
		if rowRoot > maxRowRoot {
			maxRowRoot = rowRoot
		}
	}
	if s == 0 {
		return Result{}, ErrRankDeficient
	}

	beta := budget.W() / s
	swingBound := false
	if maxRowRoot > 0 {
		half := env.LED.MaxSwing.A() / 2
		betaCap := r * half * half / (maxRowRoot * maxRowRoot)
		if beta > betaCap {
			beta = betaCap
			swingBound = true
		}
	}

	// Interference-free reception. In Eq. 12's convention TX j's stream-k
	// term at RX i is R·η·H_ji·q_jk with q_jk = r·(I_jk/2)²; with
	// Q = β·W and H·W = I the mixture collapses to amplitude R·η·β for
	// each receiver's own stream and zero for the others.
	amp := env.Params.Responsivity.APerW() * env.Params.WallPlugEfficiency * beta
	noise := env.Params.NoisePower().A2()
	sinr := amp * amp / noise

	res := Result{
		Weights:    w,
		Beta:       beta,
		SINR:       make([]float64, m),
		Throughput: make([]units.BitsPerSecond, m),
		CommPower:  units.Watts(beta * s),
		SwingBound: swingBound,
	}
	for i := 0; i < m; i++ {
		res.SINR[i] = sinr
		res.Throughput[i] = units.BitsPerSecond(env.Params.Bandwidth.Hz() * math.Log2(1+sinr))
		res.SumThroughput += res.Throughput[i]
	}
	return res, nil
}
