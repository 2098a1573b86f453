package alloc

import (
	"fmt"
	"math"

	"densevlc/internal/channel"
	"densevlc/internal/units"
)

// Heuristic is the ranking-based Signal-to-Jamming-Ratio policy of
// Algorithm 1 (Sec. 5). For every TX i and RX j it scores
//
//	SJR_{i,j} = H_{i,j}^κ / Σ_{j'} H_{i,j'},
//
// repeatedly extracts the best remaining (TX, RX) pair, removes that TX from
// contention, and obtains a ranking of all transmitters. Allocation then
// activates ranked TXs at full swing until the budget is exhausted.
//
// κ trades the desired channel against interference generated at other
// receivers: the higher κ, the more weight on the intended channel. The
// paper finds κ = 1.3 best for its setup (1.8% below optimal at 0.04% of
// the compute cost).
type Heuristic struct {
	// Kappa is the SJR exponent κ. Zero selects the paper's best, 1.3.
	Kappa float64
	// AllowPartial lets the marginal transmitter run at reduced swing to
	// exactly exhaust the budget, producing smooth budget sweeps.
	AllowPartial bool
}

// Name implements Policy.
func (h Heuristic) Name() string { return fmt.Sprintf("heuristic(κ=%.2f)", h.kappa()) }

func (h Heuristic) kappa() float64 {
	if h.Kappa == 0 {
		return 1.3
	}
	return h.Kappa
}

// Rank runs Algorithm 1 verbatim and returns all N transmitters in
// assignment order. Transmitters with zero gain to every receiver are
// appended at the end unassigned (RX = -1): activating them could only burn
// power and generate interference.
func (h Heuristic) Rank(env *Env) []Assignment {
	sjr := newScoreRows(env.N(), env.M())
	fillSJRFixed(env, h.kappa(), sjr)
	return extractRanking(sjr)
}

// fillSJRFixed computes Algorithm 1's SJR matrix (lines 1–3) under one
// global exponent into the caller's rows.
func fillSJRFixed(env *Env, kappa float64, sjr [][]float64) {
	n, m := env.N(), env.M()
	for i := 0; i < n; i++ {
		row := sjr[i]
		var denom float64
		for j := 0; j < m; j++ {
			row[j] = 0
			denom += env.H.Gain(i, j)
		}
		if denom > 0 {
			for j := 0; j < m; j++ {
				row[j] = math.Pow(env.H.Gain(i, j), kappa) / denom
			}
		}
	}
}

// extractRanking runs the repeated arg-max with row elimination (Algorithm
// 1, lines 4–7) over the scored matrix. It is shared by both ranking
// policies, which differ only in how they score.
func extractRanking(sjr [][]float64) []Assignment {
	n := len(sjr)
	m := 0
	if n > 0 {
		m = len(sjr[0])
	}
	used := make([]bool, n)
	ranked := make([]Assignment, 0, n)
	for k := 0; k < n; k++ {
		bi, bj, best := -1, -1, -1.0
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			for j := 0; j < m; j++ {
				if sjr[i][j] > best {
					bi, bj, best = i, j, sjr[i][j]
				}
			}
		}
		if bi < 0 {
			break
		}
		used[bi] = true
		if best <= 0 {
			bj = -1 // dead TX: keep it in illumination mode forever
		}
		ranked = append(ranked, Assignment{TX: bi, RX: bj})
	}
	return ranked
}

// newScoreRows allocates an n×m score matrix backed by one buffer.
func newScoreRows(n, m int) [][]float64 {
	rows := make([][]float64, n)
	buf := make([]float64, n*m)
	for i := range rows {
		rows[i], buf = buf[:m], buf[m:]
	}
	return rows
}

// Allocate implements Policy.
func (h Heuristic) Allocate(env *Env, budget units.Watts) (channel.Swings, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	if budget < 0 {
		return nil, fmt.Errorf("alloc: negative power budget %.3f", budget.W())
	}
	return SwingsFromAssignments(env, h.Rank(env), budget, h.AllowPartial), nil
}

// AdaptiveKappa is the personalised-κ extension sketched in Sec. 9: instead
// of one global exponent, each transmitter uses a κ adapted to how much
// interference it actually generates. Transmitters whose energy lands mostly
// on a single receiver can afford an aggressive (large) κ; transmitters
// illuminating several receivers get a conservative κ so their jamming
// potential keeps them low in the ranking.
//
// The adaptation interpolates κ between KappaLow and KappaHigh with the
// transmitter's channel selectivity s_i = max_j H_{i,j} / Σ_j H_{i,j}
// (s_i = 1: all energy on one RX; s_i = 1/M: perfectly uniform jammer):
//
//	κ_i = KappaLow + (KappaHigh − KappaLow) · (s_i·M − 1)/(M − 1)
//
// Because gains are tiny (H ≈ 1e-7), the raw H^κ of Algorithm 1 is not
// comparable across transmitters using different exponents — a larger κ
// would shrink the score by orders of magnitude regardless of merit. The
// adaptive score therefore applies the exponent to the dimensionless share
// instead:
//
//	score_{i,j} = H_{i,j} · (H_{i,j} / Σ_{j'} H_{i,j'})^{κ_i − 1},
//
// which reduces to the same ranking as Algorithm 1 when all κ_i are equal
// and keeps scores in channel-gain units when they differ.
type AdaptiveKappa struct {
	// KappaLow and KappaHigh bound the per-TX exponent. Zero values select
	// 1.2 and 1.4 — a band around the best fixed κ of 1.3, since Fig. 11
	// shows performance falls off steeply outside [1.2, 1.5].
	KappaLow, KappaHigh float64
	// AllowPartial as in Heuristic.
	AllowPartial bool
}

// Name implements Policy.
func (a AdaptiveKappa) Name() string {
	lo, hi := a.bounds()
	return fmt.Sprintf("adaptive-κ[%.1f,%.1f]", lo, hi)
}

func (a AdaptiveKappa) bounds() (float64, float64) {
	lo, hi := a.KappaLow, a.KappaHigh
	if lo == 0 {
		lo = 1.2
	}
	if hi == 0 {
		hi = 1.4
	}
	return lo, hi
}

// Rank mirrors Heuristic.Rank with a per-transmitter exponent.
func (a AdaptiveKappa) Rank(env *Env) []Assignment {
	lo, hi := a.bounds()
	sjr := newScoreRows(env.N(), env.M())
	fillSJRAdaptive(env, lo, hi, sjr)
	return extractRanking(sjr)
}

// fillSJRAdaptive computes the selectivity-interpolated score matrix into
// the caller's rows — the adaptive-κ sibling of fillSJRFixed.
func fillSJRAdaptive(env *Env, lo, hi float64, sjr [][]float64) {
	n, m := env.N(), env.M()
	for i := 0; i < n; i++ {
		row := sjr[i]
		var denom, max float64
		for j := 0; j < m; j++ {
			row[j] = 0
			g := env.H.Gain(i, j)
			denom += g
			if g > max {
				max = g
			}
		}
		if denom > 0 {
			sel := max / denom // in [1/M, 1]
			t := 0.0
			if m > 1 {
				t = (sel*float64(m) - 1) / float64(m-1)
			}
			kappa := lo + (hi-lo)*t
			for j := 0; j < m; j++ {
				g := env.H.Gain(i, j)
				if g > 0 {
					row[j] = g * math.Pow(g/denom, kappa-1)
				}
			}
		}
	}
}

// Allocate implements Policy.
func (a AdaptiveKappa) Allocate(env *Env, budget units.Watts) (channel.Swings, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	if budget < 0 {
		return nil, fmt.Errorf("alloc: negative power budget %.3f", budget.W())
	}
	return SwingsFromAssignments(env, a.Rank(env), budget, a.AllowPartial), nil
}
