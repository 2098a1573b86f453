package alloc

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"densevlc/internal/optimize"
)

// This file pins the fused line-search step (problem.Step and
// problem.LastGradient) to the separate calls it replaces, bit for bit:
// per step on arbitrary inputs (FuzzStepMatchesSeparate), and over whole
// solves (TestMaximizeFusedMatchesGeneric), where a single differing bit
// would change an Armijo decision and with it the trajectory.

// separateStep is the unfused form of problem.Step: build x + s·d,
// Project, Value, and the squared move summed in index order — what
// optimize.Maximize does for an objective that is not a Stepper.
func separateStep(p *problem, x, d []float64, s float64, trial []float64) (float64, float64) {
	for i := range trial {
		trial[i] = x[i] + s*d[i]
	}
	p.Project(trial)
	f := p.Value(trial)
	move2 := 0.0
	for i := range trial {
		dv := trial[i] - x[i]
		move2 += dv * dv
	}
	return f, move2
}

// withReceivers derives a problem with p's parameters and transmitters but
// m receivers, each gain drawn from p's gains (occluded zeros included)
// and scaled by a random factor.
func withReceivers(p *problem, m int, rng *rand.Rand) *problem {
	q := *p
	q.m = m
	q.h = make([]float64, q.n*m)
	for i := range q.h {
		q.h[i] = p.h[rng.Intn(len(p.h))] * (0.25 + 1.5*rng.Float64())
	}
	q.grabWorkspace()
	return &q
}

// plainObjective hides problem's Stepper methods, so optimize.Maximize
// takes its generic build → Project → Value → move² loop.
type plainObjective struct{ p *problem }

func (o plainObjective) Value(x []float64) float64 { return o.p.Value(x) }
func (o plainObjective) Gradient(x, g []float64)   { o.p.Gradient(x, g) }

// sameFloat is bit equality with every NaN equal to every other: the two
// paths run the same operations, but a NaN's payload may depend on which
// operand the compiler puts first.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func TestMaximizeFusedMatchesGeneric(t *testing.T) {
	// Randomized problems at M ∈ {1, 3, 4, 6}, some with a dark TX row or
	// a blocked RX column on top of the occluded links, solved from
	// production-style and random starts under iteration caps from 1 to
	// 2000: the Stepper path and the generic path must produce the same
	// solve, bit for bit, including the error of a starved start.
	rng := rand.New(rand.NewSource(47))
	ms := []int{1, 3, 4, 6}
	for trial := 0; trial < 200; trial++ {
		p := withReceivers(randomizedProblem(t, rng), ms[trial%len(ms)], rng)
		switch rng.Intn(6) {
		case 0: // a dark TX
			j := rng.Intn(p.n)
			clear(p.h[j*p.m : j*p.m+p.m])
		case 1: // a blocked RX: the start is starved
			i := rng.Intn(p.m)
			for j := 0; j < p.n; j++ {
				p.h[j*p.m+i] = 0
			}
		}
		var x0 []float64
		if seeds := p.seeds(optimalStarts); trial%3 != 0 {
			x0 = seeds[rng.Intn(len(seeds))]
		} else {
			x0 = randomInteriorPoint(rng, p)
		}
		opts := optimize.Options{MaxIterations: 1 + rng.Intn(2000), InitialStep: 0.05}
		if trial%4 == 0 {
			opts.InitialStep = 0 // the default
		}
		fused, errF := optimize.Maximize(p, p, x0, opts)
		plain, errP := optimize.Maximize(plainObjective{p.clone()}, p.clone(), x0, opts)
		if !errors.Is(errF, errP) && !errors.Is(errP, errF) {
			t.Fatalf("trial %d (M=%d): fused err %v, generic err %v", trial, p.m, errF, errP)
		}
		if fused.Iterations != plain.Iterations || fused.Converged != plain.Converged ||
			!sameFloat(fused.Value, plain.Value) {
			t.Fatalf("trial %d (M=%d, cap %d): fused (it=%d, conv=%v, f=%x), generic (it=%d, conv=%v, f=%x)",
				trial, p.m, opts.MaxIterations, fused.Iterations, fused.Converged, fused.Value,
				plain.Iterations, plain.Converged, plain.Value)
		}
		for i := range fused.X {
			if !sameFloat(fused.X[i], plain.X[i]) {
				t.Fatalf("trial %d (M=%d): X[%d] fused %x, generic %x", trial, p.m, i, fused.X[i], plain.X[i])
			}
		}
	}
}

func FuzzStepMatchesSeparate(f *testing.F) {
	special := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(int64(1), uint8(4), uint8(36), 1.19, 0.05, []byte(nil))
	f.Add(int64(2), uint8(3), uint8(9), 0.2, 1.0, []byte(nil))
	f.Add(int64(3), uint8(1), uint8(5), 3.0, 1e-6, []byte(nil))
	f.Add(int64(4), uint8(6), uint8(2), 1e-9, 64.0, []byte(nil))
	f.Add(int64(5), uint8(4), uint8(3), 1.0, 0.5,
		special(0.3, math.Inf(1), math.NaN(), -0.0, 1e308, 5e-324, -1, 0))
	base := newProblem(testEnv(fig7RX()), 1)
	f.Fuzz(func(t *testing.T, seed int64, mRaw, nRaw uint8, budget, s float64, raw []byte) {
		rng := rand.New(rand.NewSource(seed))
		// next takes the next eight bytes of raw as a float64 while they
		// last, so the fuzzer reaches any value; after that, a realistic one.
		next := func(realistic float64) float64 {
			if len(raw) < 8 {
				return realistic
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw))
			raw = raw[8:]
			return v
		}
		m, n := 1+int(mRaw%8), 1+int(nRaw%40)
		p := *base
		p.n, p.m, p.budget = n, m, budget
		p.maxSwing = next(base.maxSwing)
		p.h = make([]float64, n*m)
		for i := range p.h {
			g := base.h[rng.Intn(len(base.h))] * (0.25 + 1.5*rng.Float64())
			if rng.Intn(10) == 0 {
				g = 0 // occluded link
			}
			p.h[i] = next(g)
		}
		p.grabWorkspace()
		x, d := make([]float64, n*m), make([]float64, n*m)
		for i := range x {
			x[i] = next(rng.Float64() * p.maxSwing / float64(m))
			d[i] = next(rng.NormFloat64() * p.maxSwing)
		}
		want, got := make([]float64, n*m), make([]float64, n*m)
		fWant, mWant := separateStep(&p, x, d, s, want)
		fGot, mGot := p.Step(x, d, s, got)
		if !sameFloat(fGot, fWant) || !sameFloat(mGot, mWant) {
			t.Fatalf("M=%d N=%d: Step (f=%x, move²=%x), separate (f=%x, move²=%x)",
				m, n, fGot, mGot, fWant, mWant)
		}
		for i := range got {
			if !sameFloat(got[i], want[i]) {
				t.Fatalf("M=%d N=%d: trial[%d] %x, separate %x", m, n, i, got[i], want[i])
			}
		}
	})
}
