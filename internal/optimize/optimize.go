// Package optimize provides the nonlinear programming machinery DenseVLC
// needs to compute the optimal power-allocation policy of Eq. (5)–(7).
//
// The paper solves the allocation with Matlab's fmincon; this package is the
// from-scratch Go substitute: a projected-gradient ascent with Armijo
// backtracking over a feasible set expressed as a projection operator, plus
// the constraint-set projections the DenseVLC problem needs (non-negativity,
// capped simplex per transmitter, radial power scaling). A derivative-free
// Nelder–Mead simplex solver is included for cross-validation in tests.
package optimize

import (
	"errors"
	"math"
	"slices"
)

// Objective is a differentiable function to maximise.
type Objective interface {
	// Value returns f(x).
	Value(x []float64) float64
	// Gradient writes ∇f(x) into grad (len(grad) == len(x)).
	Gradient(x, grad []float64)
}

// Stepper is an optional Objective extension that evaluates each
// line-search point once. Objectives whose value and gradient share
// expensive terms (DenseVLC's per-receiver signal/interference sums and
// logs) implement it; Maximize detects and prefers it.
//
// Maximize requests a gradient only at the incumbent, and the incumbent is
// always the point of the most recent evaluation: the projected start point
// (Value) or the line-search trial just accepted (Step). Every gradient
// request therefore follows an evaluation of the same point, with a finite
// value, and LastGradient may build ∇f from terms that evaluation kept.
type Stepper interface {
	Objective
	// Step writes the trial point P(x + s·d) into trial, where P is the
	// Projector passed to Maximize, and returns f(trial) and the squared
	// move Σ(trial_i − x_i)² summed in index order. Both must be
	// bit-identical to building the point, calling Project and Value, and
	// summing the move separately, so the Armijo test sees exactly the
	// numbers the plain loop would.
	Step(x, d []float64, s float64, trial []float64) (f, move2 float64)
	// LastGradient writes ∇f(x) into grad, where x is the point of the
	// most recent Value or Step call (for Step, its trial) and that call
	// returned a finite value.
	LastGradient(x, grad []float64)
}

// Projector maps an arbitrary point onto the feasible set, in place.
type Projector interface {
	Project(x []float64)
}

// ProjectorFunc adapts a function to the Projector interface.
type ProjectorFunc func(x []float64)

// Project implements Projector.
func (f ProjectorFunc) Project(x []float64) { f(x) }

// Options tune the projected-gradient solver. Zero values select defaults.
type Options struct {
	// MaxIterations bounds the outer iterations (default 2000).
	MaxIterations int
	// InitialStep is the first trial step length (default 1).
	InitialStep float64
}

// The line search's fixed constants: the solver stops when the relative
// objective improvement over an iteration falls below tolerance, accepts a
// step whose increase clears armijoC times the squared move over the step
// length, and shrinks a rejected step by backtrack.
const (
	tolerance = 1e-9
	armijoC   = 1e-4
	backtrack = 0.5
)

func (o Options) withDefaults() Options {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 2000
	}
	if o.InitialStep <= 0 {
		o.InitialStep = 1
	}
	return o
}

// Result reports the outcome of a solve.
type Result struct {
	X          []float64
	Value      float64
	Iterations int
	Converged  bool
}

// ErrBadStart is returned when the starting point has a non-finite
// objective even after projection; the caller must supply a feasible start
// with finite value (for DenseVLC: every receiver needs nonzero signal).
var ErrBadStart = errors.New("optimize: objective not finite at start point")

// Maximize runs projected-gradient ascent with Armijo backtracking from x0.
// The start point is projected before use. The returned Result holds the
// best point found; Converged reports whether the tolerance was met before
// the iteration cap.
func Maximize(obj Objective, proj Projector, x0 []float64, opts Options) (Result, error) {
	opts = opts.withDefaults()
	n := len(x0)
	x := append([]float64(nil), x0...)
	proj.Project(x)

	f := obj.Value(x)
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return Result{X: x, Value: f}, ErrBadStart
	}

	grad := make([]float64, n)
	trial := make([]float64, n)
	step := opts.InitialStep

	// Fused path: each trial is built, projected and evaluated in one Step,
	// and the gradient comes from the accepted trial's own terms. The
	// Stepper contract makes its numbers bit-identical to the plain loop's.
	st, fused := obj.(Stepper)

	var it int
	converged := false
	for it = 0; it < opts.MaxIterations; it++ {
		// x is the point of the most recent evaluation: the start point or
		// the trial accepted below.
		if fused {
			st.LastGradient(x, grad)
		} else {
			obj.Gradient(x, grad)
		}
		if zeroVector(grad) {
			converged = true
			break
		}

		// Backtracking line search on the projected-gradient arc.
		improved := false
		s := step
		for bt := 0; bt < 60; bt++ {
			var ft, move2 float64
			if fused {
				ft, move2 = st.Step(x, grad, s, trial)
			} else {
				for i := range trial {
					trial[i] = x[i] + s*grad[i]
				}
				proj.Project(trial)
				ft = obj.Value(trial)
				for i := range trial {
					d := trial[i] - x[i]
					move2 += d * d
				}
			}
			if !math.IsNaN(ft) && !math.IsInf(ft, 0) {
				// Sufficient increase measured against the actual move,
				// which projection may have shortened.
				if move2 == 0 {
					break // projection pinned us; shrinking s won't help
				}
				if ft >= f+armijoC*move2/s {
					// The accepted trial becomes the incumbent, and the
					// last point evaluated.
					x, trial = trial, x
					prev := f
					f = ft
					improved = true
					// Grow the step again so flat stretches stay fast.
					step = s * 2
					if rel(f, prev) < tolerance {
						converged = true
					}
					break
				}
			}
			s *= backtrack
		}
		// Single exit point: the line search either stalled (no feasible
		// ascent direction remains) or met the relative-improvement
		// tolerance; both mean converged.
		if !improved {
			converged = true
		}
		if converged {
			break
		}
	}
	return Result{X: x, Value: f, Iterations: it, Converged: converged}, nil
}

// zeroVector reports whether every g_i·g_i is zero, the condition under
// which Σ g_i² is zero: the squares are non-negative, and a NaN fails both
// tests alike. It stops at the first non-zero square.
func zeroVector(g []float64) bool {
	for _, v := range g {
		if v*v != 0 {
			return false
		}
	}
	return true
}

func rel(now, prev float64) float64 {
	d := math.Abs(now - prev)
	den := math.Max(math.Abs(prev), 1e-12)
	return d / den
}

// ProjectNonNegative clamps every coordinate at zero.
//
//lint:hotpath
func ProjectNonNegative(x []float64) {
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		}
	}
}

// ProjectCappedSimplex projects x onto {y : y ≥ 0, Σ y ≤ capacity} in place
// (Euclidean projection). If the non-negative part of x already sums to at
// most capacity, only the clamp applies; otherwise the standard simplex
// projection with threshold τ is used: y_i = max(x_i − τ, 0) with τ chosen
// so Σ y = capacity.
//
// Vectors up to stackDim coordinates project without allocating; beyond
// that a scratch buffer is allocated per call — hot paths with larger
// vectors should hold a buffer and call ProjectCappedSimplexScratch.
//
//lint:hotpath
func ProjectCappedSimplex(x []float64, capacity float64) {
	var buf [stackDim]float64
	if len(x) <= len(buf) {
		ProjectCappedSimplexScratch(x, capacity, buf[:len(x)])
		return
	}
	//lint:ignore hotalloc documented cold fallback for len(x) > stackDim; the AllocsPerRun gates prove the M=4 and M=16 paths stay on the stack
	ProjectCappedSimplexScratch(x, capacity, make([]float64, len(x)))
}

// stackDim is the widest vector ProjectCappedSimplex handles on the stack
// and the widest sortDescending insertion-sorts: comfortably above the
// per-TX simplex dimension of every paper scenario (M = 4 receivers).
const stackDim = 16

// ProjectCappedSimplexScratch is ProjectCappedSimplex with a caller-owned
// scratch buffer of at least len(x), so repeated projections (the solver
// projects every line-search trial) never allocate. scratch is clobbered;
// it must not alias x. The post-projection coordinate sum is returned so
// callers folding the projection into a budget computation (DenseVLC's
// constraint (7) check) need no second pass over x.
//
//lint:hotpath
func ProjectCappedSimplexScratch(x []float64, capacity float64, scratch []float64) float64 {
	if capacity < 0 {
		capacity = 0
	}
	if len(x) == 4 {
		// The per-TX simplex of every paper scenario (M = 4 receivers):
		// a fully register-resident projection, no scratch needed.
		return projectCappedSimplex4(x, capacity)
	}
	sum := 0.0
	for _, v := range x {
		if v > 0 {
			sum += v
		}
	}
	if sum <= capacity {
		// The clamp zeroes exactly the coordinates the sum skipped.
		ProjectNonNegative(x)
		return sum
	}
	// Sort a copy descending to find the water-filling threshold.
	s := scratch[:len(x)]
	copy(s, x)
	sortDescending(s)
	var cum, tau float64
	for i, v := range s {
		cum += v
		t := (cum - capacity) / float64(i+1)
		if i+1 == len(s) || s[i+1] <= t {
			tau = t
			break
		}
	}
	out := 0.0
	for i, v := range x {
		v -= tau
		if v < 0 {
			v = 0
		}
		x[i] = v
		out += v
	}
	return out
}

// projectCappedSimplex4 is the 4-wide capped-simplex projection with the
// sort replaced by a 5-comparator sorting network and the threshold scan
// unrolled. Accumulation orders match the generic path exactly, so the
// result is bit-identical.
func projectCappedSimplex4(x []float64, capacity float64) float64 {
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	sum := 0.0
	if x0 > 0 {
		sum += x0
	}
	if x1 > 0 {
		sum += x1
	}
	if x2 > 0 {
		sum += x2
	}
	if x3 > 0 {
		sum += x3
	}
	if sum <= capacity {
		if x0 < 0 {
			x0 = 0
		}
		if x1 < 0 {
			x1 = 0
		}
		if x2 < 0 {
			x2 = 0
		}
		if x3 < 0 {
			x3 = 0
		}
		x[0], x[1], x[2], x[3] = x0, x1, x2, x3
		return sum
	}
	// Descending sorting network: (0,1)(2,3)(0,2)(1,3)(1,2).
	s0, s1, s2, s3 := x0, x1, x2, x3
	if s0 < s1 {
		s0, s1 = s1, s0
	}
	if s2 < s3 {
		s2, s3 = s3, s2
	}
	if s0 < s2 {
		s0, s2 = s2, s0
	}
	if s1 < s3 {
		s1, s3 = s3, s1
	}
	if s1 < s2 {
		s1, s2 = s2, s1
	}
	// Water-filling threshold scan, unrolled: stop at the first prefix
	// whose tentative τ the next element no longer exceeds.
	cum := s0
	tau := cum - capacity
	if s1 > tau {
		cum += s1
		t := (cum - capacity) / 2
		if s2 <= t {
			tau = t
		} else {
			cum += s2
			t = (cum - capacity) / 3
			if s3 <= t {
				tau = t
			} else {
				cum += s3
				tau = (cum - capacity) / 4
			}
		}
	}
	out := 0.0
	if x0 -= tau; x0 < 0 {
		x0 = 0
	}
	out += x0
	if x1 -= tau; x1 < 0 {
		x1 = 0
	}
	out += x1
	if x2 -= tau; x2 < 0 {
		x2 = 0
	}
	out += x2
	if x3 -= tau; x3 < 0 {
		x3 = 0
	}
	out += x3
	x[0], x[1], x[2], x[3] = x0, x1, x2, x3
	return out
}

// sortDescending sorts s in place without allocating: insertion sort for
// the small vectors the per-TX projection sees, slices.Sort beyond that.
func sortDescending(s []float64) {
	if len(s) <= stackDim {
		for i := 1; i < len(s); i++ {
			v := s[i]
			j := i - 1
			for j >= 0 && s[j] < v {
				s[j+1] = s[j]
				j--
			}
			s[j+1] = v
		}
		return
	}
	slices.Sort(s)
	slices.Reverse(s)
}

// RadialScale scales x toward the origin by factor α in place. It restores
// feasibility of constraints of the form g(x) ≤ c where g(αx) = α²·g(x),
// such as DenseVLC's total-power constraint (7).
//
//lint:hotpath
func RadialScale(x []float64, alpha float64) {
	for i := range x {
		x[i] *= alpha
	}
}
