package optimize

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// quadratic is a concave objective −Σ (x_i − c_i)² with known maximiser c.
type quadratic struct{ c []float64 }

func (q quadratic) Value(x []float64) float64 {
	v := 0.0
	for i, xi := range x {
		d := xi - q.c[i]
		v -= d * d
	}
	return v
}

func (q quadratic) Gradient(x, g []float64) {
	for i, xi := range x {
		g[i] = -2 * (xi - q.c[i])
	}
}

func noProjection() Projector { return ProjectorFunc(func([]float64) {}) }

func TestMaximizeUnconstrainedQuadratic(t *testing.T) {
	q := quadratic{c: []float64{1, -2, 3}}
	res, err := Maximize(q, noProjection(), []float64{0, 0, 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range q.c {
		if math.Abs(res.X[i]-want) > 1e-4 {
			t.Errorf("x[%d] = %v, want %v", i, res.X[i], want)
		}
	}
	if !res.Converged {
		t.Error("should converge on a quadratic")
	}
}

func TestMaximizeRespectsProjection(t *testing.T) {
	// Maximiser at (2, 2) but feasible set is the non-negative simplex of
	// radius 1: the solution is the closest feasible point (0.5, 0.5) up
	// to the objective's geometry (symmetric here).
	q := quadratic{c: []float64{2, 2}}
	proj := ProjectorFunc(func(x []float64) { ProjectCappedSimplex(x, 1) })
	res, err := Maximize(q, proj, []float64{0.1, 0.1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum := res.X[0] + res.X[1]
	if sum > 1+1e-9 {
		t.Errorf("constraint violated: sum = %v", sum)
	}
	if math.Abs(res.X[0]-0.5) > 1e-3 || math.Abs(res.X[1]-0.5) > 1e-3 {
		t.Errorf("x = %v, want (0.5, 0.5)", res.X)
	}
}

func TestMaximizeBadStart(t *testing.T) {
	inf := ProjectorFunc(func([]float64) {})
	bad := objectiveFunc{
		value: func(x []float64) float64 { return math.Inf(-1) },
		grad:  func(x, g []float64) {},
	}
	if _, err := Maximize(bad, inf, []float64{0}, Options{}); err != ErrBadStart {
		t.Errorf("err = %v, want ErrBadStart", err)
	}
}

type objectiveFunc struct {
	value func([]float64) float64
	grad  func(x, g []float64)
}

func (o objectiveFunc) Value(x []float64) float64 { return o.value(x) }
func (o objectiveFunc) Gradient(x, g []float64)   { o.grad(x, g) }

func TestMaximizeDoesNotMutateStart(t *testing.T) {
	q := quadratic{c: []float64{5}}
	x0 := []float64{1}
	if _, err := Maximize(q, noProjection(), x0, Options{}); err != nil {
		t.Fatal(err)
	}
	if x0[0] != 1 {
		t.Error("start point mutated")
	}
}

func TestProjectNonNegative(t *testing.T) {
	x := []float64{-1, 0, 2}
	ProjectNonNegative(x)
	if x[0] != 0 || x[1] != 0 || x[2] != 2 {
		t.Errorf("x = %v", x)
	}
}

func TestProjectCappedSimplexCases(t *testing.T) {
	// Inside: untouched apart from the non-negativity clamp.
	x := []float64{0.2, -0.1, 0.3}
	ProjectCappedSimplex(x, 1)
	if x[0] != 0.2 || x[1] != 0 || x[2] != 0.3 {
		t.Errorf("interior point moved: %v", x)
	}
	// On the boundary after projection: sum equals the cap.
	x = []float64{2, 2}
	ProjectCappedSimplex(x, 1)
	if math.Abs(x[0]+x[1]-1) > 1e-12 {
		t.Errorf("sum = %v, want 1", x[0]+x[1])
	}
	if math.Abs(x[0]-0.5) > 1e-12 {
		t.Errorf("symmetric input should split evenly: %v", x)
	}
	// Asymmetric: Euclidean projection of (3, 1) onto the simplex of
	// radius 2 is (2, 0)... actually τ = 1 gives (2, 0).
	x = []float64{3, 1}
	ProjectCappedSimplex(x, 2)
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-0) > 1e-12 {
		t.Errorf("x = %v, want (2, 0)", x)
	}
	// Zero cap collapses everything.
	x = []float64{1, 2}
	ProjectCappedSimplex(x, 0)
	if x[0] != 0 || x[1] != 0 {
		t.Errorf("x = %v", x)
	}
	// Negative cap treated as zero.
	x = []float64{1}
	ProjectCappedSimplex(x, -3)
	if x[0] != 0 {
		t.Errorf("x = %v", x)
	}
}

func TestProjectCappedSimplexProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		n := 1 + rng.Intn(8)
		x := make([]float64, n)
		orig := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()*4 - 1
			orig[i] = x[i]
		}
		cap := rng.Float64() * 2
		ProjectCappedSimplex(x, cap)
		sum := 0.0
		for _, v := range x {
			if v < -1e-12 {
				return false
			}
			sum += v
		}
		if sum > cap+1e-9 {
			return false
		}
		// Idempotence: projecting a feasible point is a no-op.
		y := append([]float64(nil), x...)
		ProjectCappedSimplex(y, cap)
		for i := range y {
			if math.Abs(y[i]-x[i]) > 1e-9 {
				return false
			}
		}
		_ = orig
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRadialScale(t *testing.T) {
	x := []float64{2, -4}
	RadialScale(x, 0.5)
	if x[0] != 1 || x[1] != -2 {
		t.Errorf("x = %v", x)
	}
}

func TestNelderMeadQuadratic(t *testing.T) {
	q := quadratic{c: []float64{1, 2}}
	res := NelderMead(q.Value, noProjection(), []float64{-3, 5}, 1, 0)
	if math.Abs(res.X[0]-1) > 1e-3 || math.Abs(res.X[1]-2) > 1e-3 {
		t.Errorf("x = %v, want (1, 2)", res.X)
	}
}

func TestNelderMeadConstrained(t *testing.T) {
	q := quadratic{c: []float64{2, 2}}
	proj := ProjectorFunc(func(x []float64) { ProjectCappedSimplex(x, 1) })
	res := NelderMead(q.Value, proj, []float64{0.2, 0.1}, 0.3, 0)
	if res.X[0]+res.X[1] > 1+1e-9 {
		t.Errorf("constraint violated: %v", res.X)
	}
	if math.Abs(res.X[0]-0.5) > 5e-3 || math.Abs(res.X[1]-0.5) > 5e-3 {
		t.Errorf("x = %v, want ≈(0.5, 0.5)", res.X)
	}
}

func TestGradientAndNelderMeadAgree(t *testing.T) {
	// A non-trivial smooth concave function: f(x) = −Σ exp(x_i) + 3Σ x_i
	// on the box via simplex cap; both solvers should find the same point.
	obj := objectiveFunc{
		value: func(x []float64) float64 {
			v := 0.0
			for _, xi := range x {
				v += -math.Exp(xi) + 3*xi
			}
			return v
		},
		grad: func(x, g []float64) {
			for i, xi := range x {
				g[i] = -math.Exp(xi) + 3
			}
		},
	}
	proj := ProjectorFunc(func(x []float64) { ProjectCappedSimplex(x, 5) })
	pg, err := Maximize(obj, proj, []float64{0.5, 0.5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nm := NelderMead(obj.value, proj, []float64{0.5, 0.5}, 0.5, 4000)
	if math.Abs(pg.Value-nm.Value) > 1e-3*math.Abs(pg.Value) {
		t.Errorf("solvers disagree: PG %v vs NM %v", pg.Value, nm.Value)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.MaxIterations != 2000 || o.InitialStep != 1 {
		t.Errorf("defaults = %+v", o)
	}
	// Explicit values survive.
	o = Options{MaxIterations: 5, InitialStep: 2}.withDefaults()
	if o.MaxIterations != 5 || o.InitialStep != 2 {
		t.Errorf("explicit options overridden: %+v", o)
	}
}
