package alloc

import (
	"context"
	"fmt"
	"math"

	"densevlc/internal/channel"
	"densevlc/internal/optimize"
	"densevlc/internal/parallel"
	"densevlc/internal/units"
)

// Optimal solves the allocation program of Eq. (5)–(7) directly:
//
//	max_{Isw}  Σ_i log(B·log2(1 + SINR_i))
//	s.t.       0 ≤ Σ_k Isw^{j,k} ≤ Isw,max        ∀ TX j      (6)
//	           Σ_j r·(Σ_k Isw^{j,k} / 2)² ≤ P_C,tot            (7)
//
// The paper uses Matlab's fmincon; we use a multistart projected-gradient
// ascent (package optimize). Because the objective's gradient with respect
// to a swing vanishes at zero swing, pure gradient ascent cannot reactivate
// a transmitter it has switched off; the solver therefore (a) starts from
// several dense interior points, and (b) also scores the discretised
// zero-or-full-swing candidates produced by the SJR ranking across a κ grid
// (the structure Insight 2 proves near-optimal), returning the best point
// found overall. This hybrid reproduces the qualitative structure of the
// paper's optimal policies — sequential activation of preferred TXs at full
// swing (Fig. 9) — while guaranteeing the optimal policy never scores below
// any heuristic it is compared against.
//
// The interior multistarts are independent solves and fan out on
// internal/parallel's bounded pool (see Workers); the winning candidate is
// selected deterministically — highest objective, ties broken toward the
// lowest seed index — so the allocation is identical at every worker count.
type Optimal struct {
	// Workers bounds the goroutines the interior multistarts run on
	// (0 selects runtime.GOMAXPROCS(0), 1 forces a serial solve). The
	// returned allocation is the same for every value.
	Workers int
}

// optimalStarts is the number of interior multistart points, and
// optimalMaxIterations bounds each projected-gradient run.
const optimalStarts, optimalMaxIterations = 4, 1500

// optimalKappaGrid lists the κ values whose discretised rankings seed the
// candidate pool.
var optimalKappaGrid = [...]float64{1.0, 1.1, 1.2, 1.3, 1.4, 1.5}

// Name implements Policy.
func (Optimal) Name() string { return "optimal" }

// Allocate implements Policy.
func (o Optimal) Allocate(env *Env, budget units.Watts) (channel.Swings, error) {
	return o.allocate(env, budget, nil)
}

// AllocateWarm implements WarmStarter: prev — typically the incumbent of a
// neighbouring budget point in a sweep — joins the candidate pool and seeds
// an extra projected-gradient run, so the solver starts inside the basin
// the previous solve already found.
func (o Optimal) AllocateWarm(env *Env, budget units.Watts, prev channel.Swings) (channel.Swings, error) {
	return o.allocate(env, budget, prev)
}

func (o Optimal) allocate(env *Env, budget units.Watts, warm channel.Swings) (channel.Swings, error) {
	if err := CheckRequest(env, budget); err != nil {
		return nil, err
	}
	if budget == 0 {
		return channel.NewSwings(env.N(), env.M()), nil
	}

	prob := newProblem(env, budget)

	bestX := make([]float64, env.N()*env.M())
	bestF := math.Inf(-1)
	consider := func(x []float64) {
		f := prob.Value(x)
		if f > bestF {
			bestF = f
			copy(bestX, x)
		}
	}

	// Discretised ranking candidates (Insight 2 structure).
	for _, kappa := range optimalKappaGrid {
		h := Heuristic{Kappa: kappa, AllowPartial: true}
		s, err := h.Allocate(env, budget)
		if err != nil {
			return nil, err
		}
		consider(flatten(s))
	}

	// Interior multistarts refined by projected gradient, plus — when warm-
	// starting — the previous incumbent nudged into the interior so the
	// gradient can still reactivate its zeroed swings.
	opts := optimize.Options{MaxIterations: optimalMaxIterations, InitialStep: 0.05}
	seeds := prob.seeds(optimalStarts)
	if warm != nil {
		// The incumbent's basin stands in for the exploratory starts it made
		// redundant: keep the first half of the interior seeds (rounded up)
		// and add the projected incumbent, so a warm point costs fewer
		// gradient runs than a cold one while the kappa-grid floor above
		// still guarantees it never scores below any heuristic.
		wx := flatten(warm)
		prob.project(wx) // re-impose (6)–(7) under the new budget
		consider(wx)
		seeds = append(seeds[:(len(seeds)+1)/2], interiorize(wx))
	}

	// Each seed is an independent solve over shared read-only problem data;
	// clones carry the per-goroutine scratch. Candidates are collected in
	// seed order, so the consider() reduction below picks the same winner
	// at every worker count (value, then lowest seed index).
	type candidate struct {
		x  []float64
		ok bool
	}
	cands, err := parallel.Map(context.Background(), o.Workers, len(seeds), func(i int) (candidate, error) {
		p := prob.clone()
		res, err := optimize.Maximize(p, p, seeds[i], opts)
		if err != nil {
			return candidate{}, nil // infeasible seed (e.g. a starved receiver): skip
		}
		return candidate{x: res.X, ok: true}, nil
	})
	if err != nil {
		return nil, err // a panic inside a solve; impossible seeds return ok=false instead
	}
	for _, c := range cands {
		if c.ok {
			consider(c.x)
		}
	}

	// Refine the incumbent once more from a slightly perturbed copy so the
	// discrete candidates also get continuous polishing.
	if res, err := optimize.Maximize(prob, prob, interiorize(bestX), opts); err == nil {
		consider(res.X)
	}

	if math.IsInf(bestF, -1) {
		return nil, fmt.Errorf("alloc: no feasible allocation serves all %d receivers within %.3f W", env.M(), budget.W())
	}
	return unflatten(bestX, env.N(), env.M()), nil
}

// interiorize copies x with every coordinate lifted to at least 1e-3 A, the
// whisper that keeps a zeroed swing reachable by the gradient.
func interiorize(x []float64) []float64 {
	out := append([]float64(nil), x...)
	for i := range out {
		if out[i] < 1e-3 {
			out[i] = 1e-3
		}
	}
	return out
}

// problem adapts Eq. (5)–(7) to the optimize package, with the swing matrix
// flattened row-major: x[j*M+k] = Isw^{j,k} in amperes. The optimiser works
// on bare float64 magnitudes; units re-attach at the unflatten boundary.
//
// The channel matrix is cached as a dense row-major []float64 at
// construction and every kernel runs in O(N·M) two-pass form (see DESIGN.md
// "Solver kernels"): per-TX swing-power row sums first, per-RX aggregates
// second. All scratch lives in the problem's workspace, so Value, Step, the
// gradients and the projection allocate nothing on the hot path — which also means a
// problem must not be shared across goroutines; clone() derives a view with
// its own workspace over the same read-only data.
type problem struct {
	n, m     int
	budget   float64   // W
	scale    float64   // c = R·η·r
	noise    float64   // N0·B in A²
	bw       float64   // B in Hz
	resist   float64   // r in Ω
	maxSwing float64   // Isw,max in A
	h        []float64 // dense row-major channel gains: h[j*m+i] = H_{j,i}

	// Workspace (per-goroutine; see clone). sig and interf hold the
	// aggregates of the most recently evaluated point; objective() adds
	// each receiver's rate, SINR and SINR denominator, from which
	// LastGradient builds ∇F without a second aggregate pass or any log.
	sig     []float64 // u_i = Σ_j h_ji·(x_ji/2)², len m
	interf  []float64 // v_i = Σ_j h_ji·T_j − u_i, len m
	rate    []float64 // t_i = B·log2(1 + SINR_i), len m
	sinr    []float64 // SINR_i, len m
	den     []float64 // d_i = N0·B + (c·v_i)², len m
	sigCoef []float64 // signal-path gradient coefficient per RX, len m
	intCoef []float64 // interference-path gradient coefficient per RX, len m
	scratch []float64 // capped-simplex projection scratch, len m
}

func newProblem(env *Env, budget units.Watts) *problem {
	par := env.Params
	n, m := env.N(), env.M()
	p := &problem{
		n:        n,
		m:        m,
		budget:   budget.W(),
		scale:    par.Responsivity.APerW() * par.WallPlugEfficiency * par.DynamicResistance.Ohms(),
		noise:    par.NoisePower().A2(),
		bw:       par.Bandwidth.Hz(),
		resist:   par.DynamicResistance.Ohms(),
		maxSwing: env.LED.MaxSwing.A(),
		h:        make([]float64, n*m),
	}
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			p.h[j*m+i] = env.H.Gain(j, i)
		}
	}
	p.grabWorkspace()
	return p
}

func (p *problem) grabWorkspace() {
	buf := make([]float64, 8*p.m)
	p.sig, buf = buf[:p.m], buf[p.m:]
	p.interf, buf = buf[:p.m], buf[p.m:]
	p.rate, buf = buf[:p.m], buf[p.m:]
	p.sinr, buf = buf[:p.m], buf[p.m:]
	p.den, buf = buf[:p.m], buf[p.m:]
	p.sigCoef, buf = buf[:p.m], buf[p.m:]
	p.intCoef, buf = buf[:p.m], buf[p.m:]
	p.scratch = buf[:p.m]
}

// clone returns a view over the same immutable problem data with a private
// workspace, for concurrent multistart solves.
func (p *problem) clone() *problem {
	c := *p
	c.grabWorkspace()
	return &c
}

// objective reduces the aggregates to the Eq. (5) sum-log objective,
// keeping each receiver's rate, SINR and SINR denominator for the
// gradient. A starved receiver (zero rate) makes the objective −Inf; the
// terms of the receivers after it are then left stale, which is harmless
// because the solver never asks for a gradient at such a point.
func (p *problem) objective() float64 {
	obj := 0.0
	for i := 0; i < p.m; i++ {
		s := p.scale * p.sig[i]
		iv := p.scale * p.interf[i]
		d := p.noise + iv*iv
		sinr := s * s / d
		t := p.bw * math.Log2(1+sinr)
		if t <= 0 {
			return math.Inf(-1)
		}
		p.rate[i], p.sinr[i], p.den[i] = t, sinr, d
		obj += math.Log(t)
	}
	return obj
}

// Value implements optimize.Objective.
//
//lint:hotpath
func (p *problem) Value(x []float64) float64 {
	p.aggregate(x, x, false, 0)
	return p.objective()
}

// coefficients turns the terms objective() kept into the per-receiver
// gradient coefficients:
//
//	dF/dq^{j,i} (via RX i's signal)       = sigCoef[i]·H_{j,i}
//	dF/dq^{j,k} (via RX i's interference) = −intCoef[i]·H_{j,i}, i≠k
func (p *problem) coefficients() {
	c := p.scale
	for i := 0; i < p.m; i++ {
		d := p.den[i]
		g := p.bw / (p.rate[i] * (1 + p.sinr[i]) * math.Ln2) // dF/dSINR_i
		p.sigCoef[i] = g * 2 * c * c * p.sig[i] / d
		p.intCoef[i] = g * 2 * c * c * c * c * p.sig[i] * p.sig[i] * p.interf[i] / (d * d)
	}
}

// gradientFromCoefs folds the coefficients into ∇F in O(N·M): for TX j the
// interference term Σ_i intCoef[i]·h_ji is shared by every branch k, so it
// is accumulated once per row and the per-branch derivative is
//
//	dF/dq^{j,k} = (sigCoef[k] + intCoef[k])·h_jk − Σ_i intCoef[i]·h_ji
//
// then chained through q = (x/2)²: dq/dx = x/2.
func (p *problem) gradientFromCoefs(x, grad []float64) {
	if p.m == 4 {
		p.gradientFromCoefs4(x, grad)
		return
	}
	n, m := p.n, p.m
	for j := 0; j < n; j++ {
		hrow := p.h[j*m : j*m+m]
		base := 0.0
		for i := 0; i < m; i++ {
			base += p.intCoef[i] * hrow[i]
		}
		for k := 0; k < m; k++ {
			dq := (p.sigCoef[k]+p.intCoef[k])*hrow[k] - base
			grad[j*m+k] = dq * x[j*m+k] / 2
		}
	}
}

func (p *problem) gradientFromCoefs4(x, grad []float64) {
	h := p.h
	ic0, ic1, ic2, ic3 := p.intCoef[0], p.intCoef[1], p.intCoef[2], p.intCoef[3]
	s0 := p.sigCoef[0] + ic0
	s1 := p.sigCoef[1] + ic1
	s2 := p.sigCoef[2] + ic2
	s3 := p.sigCoef[3] + ic3
	for b := 0; b < len(x); b += 4 {
		xr, hr, gr := x[b:b+4:b+4], h[b:b+4:b+4], grad[b:b+4:b+4]
		h0, h1, h2, h3 := hr[0], hr[1], hr[2], hr[3]
		base := ic0*h0 + ic1*h1 + ic2*h2 + ic3*h3
		gr[0] = (s0*h0 - base) * xr[0] / 2
		gr[1] = (s1*h1 - base) * xr[1] / 2
		gr[2] = (s2*h2 - base) * xr[2] / 2
		gr[3] = (s3*h3 - base) * xr[3] / 2
	}
}

// Gradient implements optimize.Objective. Like LastGradient, it is defined
// where the objective is finite.
//
//lint:hotpath
func (p *problem) Gradient(x, grad []float64) {
	p.Value(x)
	p.LastGradient(x, grad)
}

// LastGradient implements optimize.Stepper: ∇F at x, the point of the most
// recent Value or Step, from the aggregates and per-receiver terms that
// evaluation kept — no aggregate pass and no logarithm.
//
//lint:hotpath
func (p *problem) LastGradient(x, grad []float64) {
	p.coefficients()
	p.gradientFromCoefs(x, grad)
}

// Step implements optimize.Stepper: the trial P(x + s·d), its Eq. (5)
// value and the squared move Σ(trial_i − x_i)², in two passes over the
// rows. The first builds each row, projects it onto the capped simplex (6)
// and accumulates the constraint-(7) power; the second scales radially when
// that power exceeds the budget, accumulates the aggregates and sums the
// move. Each float operation is the one, in the order, that building the
// point, Project, Value and an index-order move sum perform, so the results
// are bit-identical to that sequence (FuzzStepMatchesSeparate).
//
//lint:hotpath
func (p *problem) Step(x, d []float64, s float64, trial []float64) (float64, float64) {
	m := p.m
	power := 0.0
	for b := 0; b < len(trial); b += m {
		row, xr, dr := trial[b:b+m:b+m], x[b:b+m:b+m], d[b:b+m:b+m]
		if m == 4 {
			// Unrolled: the loop form keeps a bounds check per element of
			// xr and dr, which BenchmarkOptimalSolve shows.
			row[0] = xr[0] + s*dr[0]
			row[1] = xr[1] + s*dr[1]
			row[2] = xr[2] + s*dr[2]
			row[3] = xr[3] + s*dr[3]
		} else {
			for k := range row {
				row[k] = xr[k] + s*dr[k]
			}
		}
		t := optimize.ProjectCappedSimplexScratch(row, p.maxSwing, p.scratch)
		power += p.resist * (t / 2) * (t / 2)
	}
	scale, alpha := power > p.budget, 0.0
	if scale {
		alpha = math.Sqrt(p.budget / power)
	}
	move2 := p.aggregate(x, trial, scale, alpha)
	return p.objective(), move2
}

// aggregate fills the workspace with the O(N·M) two-pass form of the
// Eq. (12) sums at y: per TX the swing-power row sum T_j = Σ_k (y_jk/2)²,
// then the per-RX intended-signal u_i and total-incident Σ_j h_ji·T_j
// accumulators; the interference v_i is the difference. It is also Step's
// second pass: with scale set, each row of y is first multiplied by alpha
// in place (RadialScale's product), and the return is the squared move
// Σ(y_i − x_i)² in index order — zero when Value passes y = x. The M = 4
// case of every paper scenario runs fully register-resident; both paths
// accumulate in the same order, so they are bit-identical.
func (p *problem) aggregate(x, y []float64, scale bool, alpha float64) float64 {
	if p.m == 4 {
		return p.aggregate4(x, y, scale, alpha)
	}
	m := p.m
	u, v := p.sig, p.interf
	clear(u)
	clear(v)
	move2 := 0.0
	for b := 0; b < len(y); b += m {
		row, xr, hrow := y[b:b+m:b+m], x[b:b+m:b+m], p.h[b:b+m:b+m]
		if scale {
			for k := range row {
				row[k] *= alpha
			}
		}
		for k, yv := range row {
			dv := yv - xr[k]
			move2 += dv * dv
		}
		t := 0.0
		for _, yv := range row {
			half := yv / 2
			t += half * half
		}
		if t == 0 {
			continue // dark TX: contributes to nobody
		}
		for i, hji := range hrow {
			if hji == 0 {
				continue
			}
			half := row[i] / 2
			u[i] += hji * half * half
			v[i] += hji * t
		}
	}
	for i := 0; i < m; i++ {
		v[i] -= u[i]
	}
	return move2
}

// aggregate4 is aggregate for M = 4, with its accumulators in registers.
func (p *problem) aggregate4(x, y []float64, scale bool, alpha float64) float64 {
	h := p.h
	var u0, u1, u2, u3, v0, v1, v2, v3, move2 float64
	for b := 0; b < len(y); b += 4 {
		// Four-wide row views: one bounds check each, none per element.
		row, xr, hr := y[b:b+4:b+4], x[b:b+4:b+4], h[b:b+4:b+4]
		r0, r1, r2, r3 := row[0], row[1], row[2], row[3]
		if scale {
			r0 *= alpha
			r1 *= alpha
			r2 *= alpha
			r3 *= alpha
			row[0], row[1], row[2], row[3] = r0, r1, r2, r3
		}
		// The move and the aggregates are separate accumulator chains, so
		// summing the move first changes no result and frees registers.
		d := r0 - xr[0]
		move2 += d * d
		d = r1 - xr[1]
		move2 += d * d
		d = r2 - xr[2]
		move2 += d * d
		d = r3 - xr[3]
		move2 += d * d
		q0 := r0 / 2
		q1 := r1 / 2
		q2 := r2 / 2
		q3 := r3 / 2
		q0, q1, q2, q3 = q0*q0, q1*q1, q2*q2, q3*q3
		t := q0 + q1 + q2 + q3
		h0, h1, h2, h3 := hr[0], hr[1], hr[2], hr[3]
		u0 += h0 * q0
		u1 += h1 * q1
		u2 += h2 * q2
		u3 += h3 * q3
		v0 += h0 * t
		v1 += h1 * t
		v2 += h2 * t
		v3 += h3 * t
	}
	u, v := p.sig, p.interf
	u[0], u[1], u[2], u[3] = u0, u1, u2, u3
	v[0], v[1], v[2], v[3] = v0-u0, v1-u1, v2-u2, v3-u3
	return move2
}

// Project implements optimize.Projector: per-TX capped simplex for
// constraint (6), then radial scaling for the power budget (7). The
// projection shares the problem's workspace, so it is as goroutine-local as
// the kernels.
//
//lint:hotpath
func (p *problem) Project(x []float64) {
	n, m := p.n, p.m
	power := 0.0
	for j := 0; j < n; j++ {
		// The projection returns the row's post-projection swing sum, so
		// the constraint-(7) power accumulates in the same pass.
		t := optimize.ProjectCappedSimplexScratch(x[j*m:(j+1)*m], p.maxSwing, p.scratch)
		power += p.resist * (t / 2) * (t / 2)
	}
	if power > p.budget {
		optimize.RadialScale(x, math.Sqrt(p.budget/power))
	}
}

// project is the direct form of Project for callers outside the solver.
func (p *problem) project(x []float64) { p.Project(x) }

// seeds produces dense interior start points: every coordinate positive so
// the gradient can move any swing, with most mass on each receiver's best
// transmitters.
func (p *problem) seeds(count int) [][]float64 {
	n, m := p.n, p.m
	var out [][]float64

	// Seed 1: each RX's best TX carries an equal share of the budget;
	// everything else gets a whisper so it stays optimisable.
	x := make([]float64, n*m)
	eps := 1e-3
	for i := range x {
		x[i] = eps
	}
	share := p.budget / float64(m)
	for i := 0; i < m; i++ {
		if tx := p.bestTX(i); tx >= 0 {
			isw := 2 * math.Sqrt(share/p.resist)
			if isw > p.maxSwing {
				isw = p.maxSwing
			}
			x[tx*m+i] = isw
		}
	}
	out = append(out, x)

	// Seed 2: uniform across every (TX, RX) pair.
	x = make([]float64, n*m)
	// With all rows equal, power = n·r·(m·s/2)² = budget.
	s := 2 * math.Sqrt(p.budget/(float64(n)*p.resist)) / float64(m)
	for i := range x {
		x[i] = s
	}
	out = append(out, x)

	// Remaining seeds: gain-weighted — TX j leans toward the receivers it
	// hears loudest, at staggered power fractions.
	for v := 2; v < count; v++ {
		frac := float64(v) / float64(count)
		x = make([]float64, n*m)
		for j := 0; j < n; j++ {
			hrow := p.h[j*m : j*m+m]
			var denom float64
			for k := 0; k < m; k++ {
				denom += hrow[k]
			}
			if denom == 0 {
				continue
			}
			for k := 0; k < m; k++ {
				x[j*m+k] = eps + frac*p.maxSwing*hrow[k]/denom
			}
		}
		out = append(out, x)
	}
	return out
}

// bestTX returns the index of the TX with the highest cached gain to rx,
// or -1 if every gain is zero (mirrors channel.Matrix.BestTX).
func (p *problem) bestTX(rx int) int {
	best, bestG := -1, 0.0
	for j := 0; j < p.n; j++ {
		if g := p.h[j*p.m+rx]; g > bestG {
			best, bestG = j, g
		}
	}
	return best
}

func flatten(s channel.Swings) []float64 {
	if len(s) == 0 {
		return nil
	}
	m := len(s[0])
	x := make([]float64, len(s)*m)
	for j := range s {
		for k, v := range s[j] {
			x[j*m+k] = v.A()
		}
	}
	return x
}

func unflatten(x []float64, n, m int) channel.Swings {
	s := channel.NewSwings(n, m)
	for j := 0; j < n; j++ {
		for k := 0; k < m; k++ {
			s[j][k] = units.Amperes(x[j*m+k])
		}
	}
	return s
}
