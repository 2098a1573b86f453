package alloc

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"densevlc/internal/channel"
	"densevlc/internal/units"
)

func TestOptimalImplementsWarmStarter(t *testing.T) {
	var p Policy = Optimal{}
	if _, ok := p.(WarmStarter); !ok {
		t.Fatal("Optimal does not implement WarmStarter")
	}
	var h Policy = Heuristic{Kappa: 1.3}
	if _, ok := h.(WarmStarter); ok {
		t.Fatal("Heuristic unexpectedly implements WarmStarter; the fallback test below is vacuous")
	}
}

func TestAllocateWarmNilPrevEqualsAllocate(t *testing.T) {
	env := testEnv(fig7RX())
	o := Optimal{}
	cold, err := o.Allocate(env, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := o.AllocateWarm(env, 1.0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Error("AllocateWarm(env, b, nil) diverged from Allocate(env, b)")
	}
}

func TestAllocateWarmStaysFeasibleAndNoWorse(t *testing.T) {
	env := testEnv(fig7RX())
	o := Optimal{}
	budgets := []units.Watts{0.5, 1.0, 1.5}
	var prev channel.Swings
	for _, b := range budgets {
		warm, err := o.AllocateWarm(env, b, prev)
		if err != nil {
			t.Fatalf("budget %.2f: %v", b.W(), err)
		}
		assertConstraints(t, env, warm, b)
		// The incumbent joins the candidate pool, so a warm solve can never
		// score below the cold solve's kappa-grid floor.
		cold, err := o.Allocate(env, b)
		if err != nil {
			t.Fatalf("budget %.2f cold: %v", b.W(), err)
		}
		warmEv := Evaluate(env, warm)
		coldEv := Evaluate(env, cold)
		if warmEv.SumThroughput.Bps() < 0.99*coldEv.SumThroughput.Bps() {
			t.Errorf("budget %.2f: warm %.1f bps below cold %.1f bps",
				b.W(), warmEv.SumThroughput.Bps(), coldEv.SumThroughput.Bps())
		}
		prev = warm
	}
}

// assertConstraints checks Eq. (6) per-TX swing caps and the Eq. (7) power
// budget for an allocation.
func assertConstraints(t *testing.T, env *Env, s channel.Swings, budget units.Watts) {
	t.Helper()
	maxSwing := env.LED.MaxSwing.A()
	r := env.Params.DynamicResistance.Ohms()
	power := 0.0
	for j := range s {
		rowSum := 0.0
		for _, v := range s[j] {
			if v.A() < 0 {
				t.Fatalf("TX %d: negative swing %v", j, v)
			}
			rowSum += v.A()
		}
		if rowSum > maxSwing*(1+1e-9) {
			t.Fatalf("TX %d: swing sum %.6f exceeds cap %.6f", j, rowSum, maxSwing)
		}
		power += r * (rowSum / 2) * (rowSum / 2)
	}
	if power > budget.W()*(1+1e-9) {
		t.Fatalf("power %.6f W exceeds budget %.6f W", power, budget.W())
	}
}

func TestSweepWarmStartFallsBackForColdPolicies(t *testing.T) {
	env := testEnv(fig7RX())
	budgets := BudgetGrid(3.0, 8)
	policy := Heuristic{Kappa: 1.3, AllowPartial: true}
	want, err := SweepParallel(context.Background(), env, policy, budgets, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SweepWarmStart(context.Background(), env, policy, budgets, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("SweepWarmStart fallback diverged from SweepParallel for a cold policy")
	}
}

func TestSweepWarmStartDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("optimal sweep is slow")
	}
	env := testEnv(fig7RX())
	budgets := BudgetGrid(1.5, 3)
	var runs [][]SweepPoint
	for _, workers := range []int{1, 4} {
		pts, err := SweepWarmStart(context.Background(), env, Optimal{}, budgets, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		runs = append(runs, pts)
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Error("warm-started optimal sweep differs between 1 and 4 workers")
	}
}

func TestSweepWarmStartRespectsConstraintsPerPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("optimal sweep is slow")
	}
	env := testEnv(fig7RX())
	budgets := BudgetGrid(2.0, 4)
	pts, err := SweepWarmStart(context.Background(), env, Optimal{}, budgets, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(budgets) {
		t.Fatalf("got %d points, want %d", len(pts), len(budgets))
	}
	for i, pt := range pts {
		if pt.Budget != budgets[i] {
			t.Errorf("point %d: budget %v, want %v", i, pt.Budget, budgets[i])
		}
		if pt.Eval.CommPower.W() > budgets[i].W()*(1+1e-9) {
			t.Errorf("point %d: power %.6f W exceeds budget %.6f W",
				i, pt.Eval.CommPower.W(), budgets[i].W())
		}
	}
}

func TestSweepWarmStartCancellation(t *testing.T) {
	env := testEnv(fig7RX())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SweepWarmStart(ctx, env, Optimal{}, BudgetGrid(3.0, 8), 2)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("got %v, want context.Canceled", err)
	}
}

func TestSweepWarmStartErrorKeepsBudgetContext(t *testing.T) {
	env := testEnv(fig7RX())
	// A negative budget inside the grid makes the optimal solver fail at
	// that point; the error must carry the policy name and point position.
	budgets := []units.Watts{0.5, -1.0, 1.5}
	_, err := SweepWarmStart(context.Background(), env, Optimal{}, budgets, 1)
	if err == nil {
		t.Fatal("expected error for negative budget")
	}
	for _, want := range []string{"optimal", "2/3"} {
		if got := err.Error(); !strings.Contains(got, want) {
			t.Errorf("error %q missing %q", got, want)
		}
	}
}
