package alloc

import (
	"context"
	"testing"
)

func BenchmarkOptimalSolve(b *testing.B) {
	env := testEnv(fig7RX())
	for i := 0; i < b.N; i++ {
		if _, err := (Optimal{}).Allocate(env, 1.19); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeuristicSolve(b *testing.B) {
	env := testEnv(fig7RX())
	for i := 0; i < b.N; i++ {
		if _, err := (Heuristic{Kappa: 1.3}).Allocate(env, 1.19); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPoint is a dense interior evaluation point for the kernel
// micro-benchmarks: every swing positive, no receiver starved.
func benchPoint(p *problem) []float64 {
	x := make([]float64, p.n*p.m)
	for i := range x {
		x[i] = 0.01 + 0.002*float64(i%7)
	}
	return x
}

func BenchmarkProblemValue(b *testing.B) {
	p := newProblem(testEnv(fig7RX()), 1.19)
	x := benchPoint(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Value(x)
	}
}

func BenchmarkProblemGradient(b *testing.B) {
	p := newProblem(testEnv(fig7RX()), 1.19)
	x := benchPoint(p)
	grad := make([]float64, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Gradient(x, grad)
	}
}

// BenchmarkProblemStep times one line-search trial as the solver runs it:
// the fused build, projection, evaluation and move sum along the gradient,
// at a step long enough that the budget scaling applies.
func BenchmarkProblemStep(b *testing.B) {
	p := newProblem(testEnv(fig7RX()), 1.19)
	x := benchPoint(p)
	grad := make([]float64, len(x))
	p.Gradient(x, grad)
	trial := make([]float64, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = p.Step(x, grad, 0.05, trial)
	}
}

func BenchmarkProblemProject(b *testing.B) {
	p := newProblem(testEnv(fig7RX()), 1.19)
	x := benchPoint(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Project(x)
	}
}

// The sweep pair runs the production solver: warm points trade two of its
// four exploratory seeds for the previous incumbent's basin. On this
// 3-point BudgetGrid(1.5, 3) the warm sweep runs slower than the cold one
// (serial, median of 5 alternating runs on a 2-core AMD EPYC): 20.96 vs
// 18.03 ms before the solver's fused line-search step, 14.27 vs 13.65 ms
// after it. The 0.77–0.82× warm-to-cold time DESIGN.md reports holds on
// the 12–96-point grids of scenarios 1–3, not on this short one.

func BenchmarkSweepOptimalWarmStart(b *testing.B) {
	env := testEnv(fig7RX())
	budgets := BudgetGrid(1.5, 3)
	o := Optimal{Workers: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SweepWarmStart(context.Background(), env, o, budgets, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepOptimalColdStart(b *testing.B) {
	env := testEnv(fig7RX())
	budgets := BudgetGrid(1.5, 3)
	o := Optimal{Workers: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SweepParallel(context.Background(), env, o, budgets, 1); err != nil {
			b.Fatal(err)
		}
	}
}
