package alloc

import (
	"math"
	"math/rand"
	"testing"

	"densevlc/internal/units"
)

// This file pins the optimized O(N·M) solver kernels to the original
// O(N·M²) formulation they replaced. The reference implementations below
// are kept verbatim (triple loops, per-call allocations, h.Gain-style
// lookups through the cached matrix) as executable ground truth; the
// property tests require the fast kernels to agree to ≤1e-12 relative
// error on randomized paper-scale (36×4) instances, and the allocation
// assertions require the fast kernels to stay off the heap entirely.

// referenceValue is the pre-optimization objective: for every receiver it
// walks all N·M swing entries.
func referenceValue(p *problem, x []float64) float64 {
	n, m := p.n, p.m
	obj := 0.0
	for i := 0; i < m; i++ {
		var u, w float64 // intended signal sum, total incident sum
		for j := 0; j < n; j++ {
			hji := p.h[j*m+i]
			if hji == 0 {
				continue
			}
			for k := 0; k < m; k++ {
				half := x[j*m+k] / 2
				q := half * half
				w += hji * q
				if k == i {
					u += hji * q
				}
			}
		}
		sig := p.scale * u
		interf := p.scale * (w - u)
		sinr := sig * sig / (p.noise + interf*interf)
		t := p.bw * math.Log2(1+sinr)
		if t <= 0 {
			return math.Inf(-1)
		}
		obj += math.Log(t)
	}
	return obj
}

// referenceGradient is the pre-optimization gradient: O(N·M²) aggregate
// loops, fresh coefficient slices per call, and a per-entry receiver scan.
// Like the kernels, it is defined where every receiver has a positive rate.
func referenceGradient(p *problem, x, grad []float64) {
	n, m := p.n, p.m
	c := p.scale

	u := make([]float64, m)
	v := make([]float64, m)
	for i := 0; i < m; i++ {
		var ui, wi float64
		for j := 0; j < n; j++ {
			hji := p.h[j*m+i]
			if hji == 0 {
				continue
			}
			for k := 0; k < m; k++ {
				half := x[j*m+k] / 2
				q := half * half
				wi += hji * q
				if k == i {
					ui += hji * q
				}
			}
		}
		u[i], v[i] = ui, wi-ui
	}

	sigCoef := make([]float64, m)
	intCoef := make([]float64, m)
	for i := 0; i < m; i++ {
		s := c * u[i]
		iv := c * v[i]
		d := p.noise + iv*iv
		sinr := s * s / d
		t := p.bw * math.Log2(1+sinr)
		g := p.bw / (t * (1 + sinr) * math.Ln2)
		sigCoef[i] = g * 2 * c * c * u[i] / d
		intCoef[i] = g * 2 * c * c * c * c * u[i] * u[i] * v[i] / (d * d)
	}

	for j := 0; j < n; j++ {
		for k := 0; k < m; k++ {
			dq := 0.0
			for i := 0; i < m; i++ {
				hji := p.h[j*m+i]
				if hji == 0 {
					continue
				}
				if i == k {
					dq += sigCoef[i] * hji
				} else {
					dq -= intCoef[i] * hji
				}
			}
			grad[j*m+k] = dq * x[j*m+k] / 2
		}
	}
}

// randomizedProblem perturbs the Fig. 7 paper instance into a fresh 36×4
// problem: every channel gain scaled by a random factor (some zeroed, as a
// blocked link would be) under a random budget.
func randomizedProblem(t *testing.T, rng *rand.Rand) *problem {
	t.Helper()
	env := testEnv(fig7RX())
	h := env.H.Clone()
	for j := 0; j < h.N; j++ {
		for i := 0; i < h.M; i++ {
			switch f := rng.Float64(); {
			case f < 0.1:
				h.H[j][i] = 0 // occluded link
			default:
				h.H[j][i] *= 0.25 + 1.5*f
			}
		}
	}
	envR := &Env{Params: env.Params, H: h, LED: env.LED}
	return newProblem(envR, units.Watts(0.1+2.9*rng.Float64()))
}

// randomInteriorPoint draws a strictly positive feasible-ish swing vector:
// every receiver keeps nonzero signal so the objective stays finite.
func randomInteriorPoint(rng *rand.Rand, p *problem) []float64 {
	x := make([]float64, p.n*p.m)
	for i := range x {
		x[i] = 1e-4 + rng.Float64()*p.maxSwing/float64(p.m)
	}
	return x
}

func relErr(a, b float64) float64 {
	d := math.Abs(a - b)
	den := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
	return d / den
}

func TestKernelValueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		p := randomizedProblem(t, rng)
		x := randomInteriorPoint(rng, p)
		got, want := p.Value(x), referenceValue(p, x)
		if e := relErr(got, want); e > 1e-12 {
			t.Fatalf("trial %d: Value %v vs reference %v (rel err %.2e)", trial, got, want, e)
		}
	}
}

func TestKernelGradientMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 50; trial++ {
		p := randomizedProblem(t, rng)
		x := randomInteriorPoint(rng, p)
		got := make([]float64, len(x))
		want := make([]float64, len(x))
		p.Gradient(x, got)
		referenceGradient(p, x, want)
		for i := range got {
			if e := relErr(got[i], want[i]); e > 1e-12 {
				t.Fatalf("trial %d: grad[%d] = %v vs reference %v (rel err %.2e)",
					trial, i, got[i], want[i], e)
			}
		}
	}
}

func TestKernelGenericPathMatchesReference(t *testing.T) {
	// M ≠ 4 exercises the generic (non-unrolled) kernels: drop a receiver
	// from the Fig. 7 instance.
	rng := rand.New(rand.NewSource(44))
	env := testEnv(fig7RX()[:3])
	if env.M() == 4 {
		t.Fatal("want a non-4 receiver count")
	}
	p := newProblem(env, 1.0)
	for trial := 0; trial < 20; trial++ {
		x := randomInteriorPoint(rng, p)
		if e := relErr(p.Value(x), referenceValue(p, x)); e > 1e-12 {
			t.Fatalf("trial %d: generic Value rel err %.2e", trial, e)
		}
		got := make([]float64, len(x))
		want := make([]float64, len(x))
		p.Gradient(x, got)
		referenceGradient(p, x, want)
		for i := range got {
			if e := relErr(got[i], want[i]); e > 1e-12 {
				t.Fatalf("trial %d: generic grad[%d] rel err %.2e", trial, i, e)
			}
		}
	}
}

func TestStepFusionBitIdentical(t *testing.T) {
	// The fused step must agree with the separate calls exactly, and the
	// gradient built from its kept terms with a fresh Gradient at the trial:
	// the solver takes one path or the other, and the goldens pin both.
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 40; trial++ {
		p := randomizedProblem(t, rng)
		if trial%2 == 1 {
			p = withReceivers(p, 1+rng.Intn(6), rng) // generic path, M ≠ 4 mostly
		}
		x := randomInteriorPoint(rng, p)
		p.Project(x)
		d := make([]float64, len(x))
		p.Gradient(x, d)
		s := math.Ldexp(1, -rng.Intn(40))
		want, got := make([]float64, len(x)), make([]float64, len(x))
		fWant, mWant := separateStep(p, x, d, s, want)
		gWant := make([]float64, len(x))
		p.Gradient(want, gWant)
		fGot, mGot := p.Step(x, d, s, got)
		gGot := make([]float64, len(x))
		p.LastGradient(got, gGot)
		if fGot != fWant || mGot != mWant {
			t.Fatalf("trial %d (M=%d): Step (f=%x, move²=%x), separate (f=%x, move²=%x)",
				trial, p.m, fGot, mGot, fWant, mWant)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d (M=%d): trial[%d] %x, separate %x", trial, p.m, i, got[i], want[i])
			}
			if gGot[i] != gWant[i] {
				t.Fatalf("trial %d (M=%d): LastGradient[%d] %x, Gradient %x", trial, p.m, i, gGot[i], gWant[i])
			}
		}
	}
}

func TestProblemCloneIsIndependent(t *testing.T) {
	env := testEnv(fig7RX())
	p := newProblem(env, 1.0)
	c := p.clone()
	x := make([]float64, p.n*p.m)
	for i := range x {
		x[i] = 0.01
	}
	want := p.Value(x)
	// Trash the clone's workspace with a different point; the original's
	// next evaluation must not see it.
	y := make([]float64, p.n*p.m)
	for i := range y {
		y[i] = 0.2
	}
	_ = c.Value(y)
	if got := p.Value(x); got != want {
		t.Fatalf("clone shares workspace: %v != %v", got, want)
	}
	if &p.h[0] != &c.h[0] {
		t.Error("clone copied the channel matrix; it should share the read-only data")
	}
	if &p.sig[0] == &c.sig[0] || &p.scratch[0] == &c.scratch[0] {
		t.Error("clone shares scratch buffers; concurrent solves would race")
	}
}

func TestGradientAllocationFree(t *testing.T) {
	env := testEnv(fig7RX())
	p := newProblem(env, 1.0)
	x := randomInteriorPoint(rand.New(rand.NewSource(46)), p)
	grad := make([]float64, len(x))
	if n := testing.AllocsPerRun(100, func() { p.Gradient(x, grad) }); n != 0 {
		t.Errorf("Gradient allocates %.0f objects per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = p.Value(x) }); n != 0 {
		t.Errorf("Value allocates %.0f objects per run, want 0", n)
	}
	trial := make([]float64, len(x))
	if n := testing.AllocsPerRun(100, func() { _, _ = p.Step(x, grad, 1e-3, trial) }); n != 0 {
		t.Errorf("Step allocates %.0f objects per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { p.LastGradient(trial, grad) }); n != 0 {
		t.Errorf("LastGradient allocates %.0f objects per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { p.Project(x) }); n != 0 {
		t.Errorf("Project allocates %.0f objects per run, want 0", n)
	}
}
