package optimize

import (
	"math"
	"math/rand"
	"testing"
)

// referenceProject is the generic capped-simplex projection kept as ground
// truth for the 4-wide fast path: full sort, explicit threshold scan.
func referenceProject(x []float64, capacity float64) float64 {
	if capacity < 0 {
		capacity = 0
	}
	sum := 0.0
	for _, v := range x {
		if v > 0 {
			sum += v
		}
	}
	if sum <= capacity {
		ProjectNonNegative(x)
		return sum
	}
	s := append([]float64(nil), x...)
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

func TestProjectCappedSimplex4BitIdenticalToGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		x := make([]float64, 4)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		capacity := math.Abs(rng.NormFloat64())
		if trial%17 == 0 {
			capacity = 0
		}
		if trial%23 == 0 {
			// Ties stress the sorting network's stability.
			x[1] = x[0]
			x[3] = x[2]
		}
		want := append([]float64(nil), x...)
		wantSum := referenceProject(want, capacity)
		gotSum := ProjectCappedSimplexScratch(x, capacity, make([]float64, 4))
		for i := range x {
			if x[i] != want[i] {
				t.Fatalf("trial %d: x[%d] = %x, generic %x (input cap %v)",
					trial, i, x[i], want[i], capacity)
			}
		}
		if gotSum != wantSum {
			t.Fatalf("trial %d: returned sum %x, generic %x", trial, gotSum, wantSum)
		}
	}
}

func TestProjectCappedSimplexScratchReturnsSum(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	scratch := make([]float64, 36)
	for trial := 0; trial < 500; trial++ {
		n := 2 + rng.Intn(35)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		capacity := math.Abs(rng.NormFloat64())
		got := ProjectCappedSimplexScratch(x, capacity, scratch[:n])
		direct := 0.0
		for _, v := range x {
			direct += v
		}
		// The return accumulates the projected coordinates as they are
		// written, in index order — the same order the direct sum uses.
		if got != direct {
			t.Fatalf("trial %d (n=%d): returned sum %x, recomputed %x", trial, n, got, direct)
		}
		if got > capacity*(1+1e-12)+1e-15 {
			t.Fatalf("trial %d: sum %v exceeds capacity %v", trial, got, capacity)
		}
	}
}

func TestProjectionAllocationFree(t *testing.T) {
	x4 := []float64{0.9, -0.2, 0.7, 0.4}
	x16 := make([]float64, 16)
	x36 := make([]float64, 36)
	scratch := make([]float64, 36)
	fill := func(x []float64) {
		for i := range x {
			x[i] = float64(i%5) - 1.5
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		ProjectCappedSimplex(x4, 0.5)
		fill(x4)
	}); n != 0 {
		t.Errorf("ProjectCappedSimplex len-4 allocates %.0f/run, want 0", n)
	}
	fill(x16)
	if n := testing.AllocsPerRun(100, func() {
		ProjectCappedSimplex(x16, 0.5)
		fill(x16)
	}); n != 0 {
		t.Errorf("ProjectCappedSimplex len-16 allocates %.0f/run, want 0", n)
	}
	fill(x36)
	if n := testing.AllocsPerRun(100, func() {
		ProjectCappedSimplexScratch(x36, 0.5, scratch)
		fill(x36)
	}); n != 0 {
		t.Errorf("ProjectCappedSimplexScratch len-36 allocates %.0f/run, want 0", n)
	}
}

// stepQuadratic is quadratic as a Stepper over proj, counting which entry
// points Maximize uses. Its Step is the plain loop's arithmetic verbatim.
type stepQuadratic struct {
	quadratic
	proj                                        Projector
	valueCalls, gradCalls, stepCalls, lastGrads int
}

func (q *stepQuadratic) Value(x []float64) float64 {
	q.valueCalls++
	return q.quadratic.Value(x)
}

func (q *stepQuadratic) Gradient(x, g []float64) {
	q.gradCalls++
	q.quadratic.Gradient(x, g)
}

func (q *stepQuadratic) Step(x, d []float64, s float64, trial []float64) (float64, float64) {
	q.stepCalls++
	for i := range trial {
		trial[i] = x[i] + s*d[i]
	}
	q.proj.Project(trial)
	move2 := 0.0
	for i := range trial {
		dv := trial[i] - x[i]
		move2 += dv * dv
	}
	return q.quadratic.Value(trial), move2
}

func (q *stepQuadratic) LastGradient(x, g []float64) {
	q.lastGrads++
	q.quadratic.Gradient(x, g)
}

func TestMaximizePrefersFusedPath(t *testing.T) {
	q := &stepQuadratic{quadratic: quadratic{c: []float64{1, -2, 3}}, proj: noProjection()}
	res, err := Maximize(q, q.proj, []float64{0, 0, 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if q.stepCalls == 0 || q.lastGrads == 0 {
		t.Errorf("Stepper implemented but fused path not taken: %d steps, %d gradients",
			q.stepCalls, q.lastGrads)
	}
	if q.gradCalls != 0 {
		t.Errorf("plain Gradient called %d times despite fused path", q.gradCalls)
	}
	if q.valueCalls != 1 {
		t.Errorf("Value called %d times, want once (the start point)", q.valueCalls)
	}

	// The fused path must not change the trajectory: same point, value and
	// iteration count as the plain-Objective solve, bit for bit.
	plain, err := Maximize(q.quadratic, noProjection(), []float64{0, 0, 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != plain.Value || res.Iterations != plain.Iterations {
		t.Errorf("fused solve (f=%x, it=%d) diverged from plain solve (f=%x, it=%d)",
			res.Value, res.Iterations, plain.Value, plain.Iterations)
	}
	for i := range res.X {
		if res.X[i] != plain.X[i] {
			t.Errorf("x[%d]: fused %x vs plain %x", i, res.X[i], plain.X[i])
		}
	}
}

// cliff is a concave quadratic with its maximiser (3, 3) beyond a cliff:
// the value is −Inf where x_0 + x_1 > 4 and NaN where x_0 > 2.5, so long
// line-search trials land on non-finite values. It records the last point
// it evaluated and fails the test when a gradient is requested anywhere
// but at a finite, just-evaluated point.
type cliff struct {
	t                       *testing.T
	last                    []float64
	lastF                   float64
	evals, nonFinite, grads int
}

func (c *cliff) value(x []float64) float64 {
	switch {
	case x[0] > 2.5:
		return math.NaN()
	case x[0]+x[1] > 4:
		return math.Inf(-1)
	}
	return quadratic{c: []float64{3, 3}}.Value(x)
}

func (c *cliff) Value(x []float64) float64 {
	f := c.value(x)
	c.evals++
	if math.IsNaN(f) || math.IsInf(f, 0) {
		c.nonFinite++
	}
	c.last, c.lastF = append(c.last[:0], x...), f
	return f
}

func (c *cliff) Gradient(x, g []float64) {
	c.grads++
	if f := c.value(x); math.IsNaN(f) || math.IsInf(f, 0) {
		c.t.Errorf("gradient requested at %v, where f = %v", x, f)
	}
	quadratic{c: []float64{3, 3}}.Gradient(x, g)
}

// stepCliff adds the Stepper methods, whose contract is stricter: the
// gradient point must be the one the most recent evaluation saw.
type stepCliff struct{ cliff }

func (c *stepCliff) Step(x, d []float64, s float64, trial []float64) (float64, float64) {
	for i := range trial {
		trial[i] = x[i] + s*d[i]
	}
	move2 := 0.0
	for i := range trial {
		dv := trial[i] - x[i]
		move2 += dv * dv
	}
	return c.Value(trial), move2
}

func (c *stepCliff) LastGradient(x, g []float64) {
	for i := range x {
		if x[i] != c.last[i] {
			c.t.Fatalf("gradient requested at %v, but the last evaluation was at %v", x, c.last)
		}
	}
	if math.IsNaN(c.lastF) || math.IsInf(c.lastF, 0) {
		c.t.Errorf("gradient requested at %v, where the last evaluation gave f = %v", x, c.lastF)
	}
	c.Gradient(x, g)
}

func TestMaximizeAsksGradientOnlyAtFinitePoints(t *testing.T) {
	for _, fused := range []bool{false, true} {
		newObj := func() (Objective, *cliff) {
			if fused {
				c := &stepCliff{cliff{t: t}}
				return c, &c.cliff
			}
			c := &cliff{t: t}
			return c, c
		}

		// A start on the cliff is rejected before any gradient is asked for.
		for _, x0 := range [][]float64{{5, 0}, {3, 0}} {
			obj, c := newObj()
			if _, err := Maximize(obj, noProjection(), x0, Options{}); err != ErrBadStart {
				t.Errorf("fused=%v start %v: err = %v, want ErrBadStart", fused, x0, err)
			}
			if c.grads != 0 {
				t.Errorf("fused=%v start %v: %d gradient calls at a non-finite start", fused, x0, c.grads)
			}
		}

		// From a finite start the line search keeps landing beyond the
		// cliff; the objective's own checks fail the test on any gradient
		// request at a non-finite point.
		obj, c := newObj()
		res, err := Maximize(obj, noProjection(), []float64{0, 0}, Options{InitialStep: 4})
		if err != nil {
			t.Fatalf("fused=%v: %v", fused, err)
		}
		if c.nonFinite == 0 || c.grads < 2 {
			t.Errorf("fused=%v: %d non-finite trials, %d gradients: the cliff was never tested",
				fused, c.nonFinite, c.grads)
		}
		if s := res.X[0] + res.X[1]; s > 4 || s < 4-1e-6 {
			t.Errorf("fused=%v: stopped at %v (sum %v), want the cliff edge", fused, res.X, s)
		}
	}
}

// TestMaximizeIterationCountsPinned pins the solver's exact iteration counts
// on fixed instances, on the plain path and on the fused Stepper path. The
// loop-exit restructure (single converged check in place of the old
// duplicated break) and the fused-step dispatch must not change how many
// iterations any solve takes; a diff here means the control flow changed,
// not just the code shape. The differential counterpart on the DenseVLC
// objective, alloc.TestMaximizeFusedMatchesGeneric, holds the two paths to
// the same X, Value, Iterations and Converged on 200 randomized problems.
func TestMaximizeIterationCountsPinned(t *testing.T) {
	cases := []struct {
		name string
		obj  Objective
		proj Projector
		x0   []float64
		want int
	}{
		{
			name: "unconstrained quadratic",
			obj:  quadratic{c: []float64{1, -2, 3}},
			proj: noProjection(),
			// One backtrack halves the step to exactly s=1/2, which lands a
			// quadratic on its maximiser; iteration 1 then sees a zero
			// gradient and stops.
			x0:   []float64{0, 0, 0},
			want: 1,
		},
		{
			name: "capped-simplex constrained",
			obj:  quadratic{c: []float64{2, 2}},
			proj: ProjectorFunc(func(x []float64) { ProjectCappedSimplex(x, 1) }),
			// The first step overshoots and projects onto the simplex
			// boundary at the optimum; iteration 1's line search cannot move
			// the projected point, so the stall exit fires.
			x0:   []float64{0.1, 0.1},
			want: 1,
		},
		{
			name: "start at optimum",
			obj:  quadratic{c: []float64{4}},
			proj: noProjection(),
			x0:   []float64{4},
			want: 0,
		},
	}
	for _, tc := range cases {
		fused := &stepQuadratic{quadratic: tc.obj.(quadratic), proj: tc.proj}
		for _, obj := range []Objective{tc.obj, fused} {
			res, err := Maximize(obj, tc.proj, tc.x0, Options{})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if !res.Converged {
				t.Errorf("%s: did not converge", tc.name)
			}
			if res.Iterations != tc.want {
				t.Errorf("%s (%T): %d iterations, want %d (solver control flow changed)",
					tc.name, obj, res.Iterations, tc.want)
			}
		}
	}
}
