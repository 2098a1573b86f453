package mac

import (
	"math"
	"testing"

	"densevlc/internal/alloc"
	"densevlc/internal/chaos"
	"densevlc/internal/scenario"
	"densevlc/internal/stats"
	"densevlc/internal/units"
)

// feedReports delivers one epoch of exact channel reports to the controller:
// every receiver measures every transmitter's gain, with killed transmitters
// reading zero (their LEDs are dark).
func feedReports(t *testing.T, ctrl *Controller, gains [][]float64, killed map[int]bool) {
	t.Helper()
	for rx := 0; rx < ctrl.M; rx++ {
		node := NewRXNode(rx, ctrl.N)
		for tx := 0; tx < ctrl.N; tx++ {
			g := gains[tx][rx]
			if killed[tx] {
				g = 0
			}
			if err := node.RecordMeasurement(tx, g); err != nil {
				t.Fatal(err)
			}
		}
		if err := ctrl.HandleUplink(node.BuildReport()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveryExcludesFailedTXs is the controller-driven recovery property
// sweep: for every k in 1..8, kill k random transmitters and check that
//
//   - the very first reallocation after the failure (one control epoch)
//     assigns zero swing to every casualty,
//   - the plan stays within the power budget,
//   - no receiver starves while 28+ of 36 transmitters survive,
//   - the health tracker walks each casualty Healthy→Stale→Dead in exactly
//     deadAfterEpochs epochs while survivors stay healthy.
func TestRecoveryExcludesFailedTXs(t *testing.T) {
	set := scenario.Default()
	env := set.Env(scenario.Fig7Instance(), nil)
	budget := units.Watts(1.19)
	rng := stats.NewRand(7)

	for k := 1; k <= 8; k++ {
		ctrl := NewController(env.H.N, env.H.M, alloc.Heuristic{Kappa: 1.3, AllowPartial: true},
			budget, set.Params, set.LED)

		// Epoch 0: healthy system.
		feedReports(t, ctrl, env.H.H, nil)
		if _, err := ctrl.Reallocate(); err != nil {
			t.Fatal(err)
		}

		_, chosen := chaos.RandomTXFailures(stats.SplitRand(rng), 0, env.H.N, k)
		killed := make(map[int]bool, k)
		for _, tx := range chosen {
			killed[tx] = true
		}

		// Epoch 1: the failure epoch. Recovery must complete here.
		feedReports(t, ctrl, env.H.H, killed)
		plan, err := ctrl.Reallocate()
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		for _, tx := range chosen {
			for rx := 0; rx < env.H.M; rx++ {
				if plan.Swings[tx][rx] > 0 {
					t.Errorf("k=%d: dead TX %d still assigned %v A to RX %d one epoch after failing",
						k, tx, plan.Swings[tx][rx], rx)
				}
			}
			if got := ctrl.TXState(tx); got != LinkStale {
				t.Errorf("k=%d: TX %d state after one zero epoch = %v, want stale", k, tx, got)
			}
		}
		masked := maskedEnv(set, killed)
		ev := alloc.Evaluate(masked, plan.Swings)
		if ev.CommPower > budget+1e-9 {
			t.Errorf("k=%d: post-recovery plan draws %.3f W over the %.2f W budget", k, ev.CommPower.W(), budget.W())
		}
		for rx, txs := range plan.ServedBy {
			if len(txs) == 0 {
				t.Errorf("k=%d: RX %d starved with %d survivors", k, rx, env.H.N-k)
			}
		}

		// Epoch 2: confirmation. Casualties go dead, survivors stay healthy.
		feedReports(t, ctrl, env.H.H, killed)
		if _, err := ctrl.Reallocate(); err != nil {
			t.Fatal(err)
		}
		if got := len(ctrl.DeadTXs()); got != k {
			t.Errorf("k=%d: %d TXs dead after %d epochs, want %d", k, got, deadAfterEpochs, k)
		}
		for tx := 0; tx < env.H.N; tx++ {
			if !killed[tx] && ctrl.TXState(tx) != LinkHealthy {
				t.Errorf("k=%d: surviving TX %d classified %v", k, tx, ctrl.TXState(tx))
			}
		}
	}
}

// maskedEnv rebuilds the allocation environment with the killed transmitters'
// rows zeroed — the ground truth a fresh solver sees after the failures.
func maskedEnv(set scenario.Setup, killed map[int]bool) *alloc.Env {
	env := set.Env(scenario.Fig7Instance(), nil)
	for tx := range killed {
		for rx := range env.H.H[tx] {
			env.H.H[tx][rx] = 0
		}
	}
	return env
}

// TestRecoveryWithinOnePercentOfOptimum pins the quality of controller-driven
// recovery: with the optimal policy, the plan produced in the failure epoch
// must score (sum-log utility on the surviving channel) within 1% of a
// from-scratch optimum recomputed on the survivors.
func TestRecoveryWithinOnePercentOfOptimum(t *testing.T) {
	if testing.Short() {
		t.Skip("NLP solves in -short mode")
	}
	set := scenario.Default()
	env := set.Env(scenario.Fig7Instance(), nil)
	budget := units.Watts(1.19)
	rng := stats.NewRand(11)

	for _, k := range []int{2, 5, 8} {
		ctrl := NewController(env.H.N, env.H.M, alloc.Optimal{}, budget, set.Params, set.LED)
		feedReports(t, ctrl, env.H.H, nil)
		if _, err := ctrl.Reallocate(); err != nil {
			t.Fatal(err)
		}

		_, chosen := chaos.RandomTXFailures(stats.SplitRand(rng), 0, env.H.N, k)
		killed := make(map[int]bool, k)
		for _, tx := range chosen {
			killed[tx] = true
		}
		feedReports(t, ctrl, env.H.H, killed)
		plan, err := ctrl.Reallocate()
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}

		masked := maskedEnv(set, killed)
		fresh, err := alloc.Optimal{}.Allocate(masked, budget)
		if err != nil {
			t.Fatalf("k=%d: from-scratch solve: %v", k, err)
		}
		got := alloc.Evaluate(masked, plan.Swings).SumLog
		want := alloc.Evaluate(masked, fresh).SumLog
		if got < want-0.01*math.Abs(want) {
			t.Errorf("k=%d: recovered plan scores %.4f, from-scratch optimum %.4f (>1%% worse)", k, got, want)
		}
	}
}

// TestDeadTXStaysExcludedWithoutReports guards the stale-report hazard: once
// a transmitter is dead, it must stay excluded even if receivers stop
// reporting (the freshness gate) and its last positive report lingers in the
// gain table.
func TestDeadTXStaysExcludedWithoutReports(t *testing.T) {
	set := scenario.Default()
	env := set.Env(scenario.Fig7Instance(), nil)
	ctrl := NewController(env.H.N, env.H.M, alloc.Heuristic{Kappa: 1.3, AllowPartial: true},
		1.19, set.Params, set.LED)

	killed := map[int]bool{7: true}
	feedReports(t, ctrl, env.H.H, nil)
	if _, err := ctrl.Reallocate(); err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 2; epoch++ {
		feedReports(t, ctrl, env.H.H, killed)
		if _, err := ctrl.Reallocate(); err != nil {
			t.Fatal(err)
		}
	}
	if ctrl.TXState(7) != LinkDead {
		t.Fatalf("TX 7 state = %v, want dead", ctrl.TXState(7))
	}

	// Resurrect the stale gain entry by hand, then reallocate with NO fresh
	// reports: the dead row must stay zeroed in the controller's env.
	ctrl.gains[7][0] = env.H.H[7][0]
	plan, err := ctrl.Reallocate()
	if err != nil {
		t.Fatal(err)
	}
	for rx := 0; rx < env.H.M; rx++ {
		if plan.Swings[7][rx] > 0 {
			t.Errorf("dead TX 7 re-earned swing from a stale gain entry (RX %d)", rx)
		}
	}
	if ctrl.TXState(7) != LinkDead {
		t.Errorf("no-evidence epoch changed TX 7 to %v", ctrl.TXState(7))
	}

	// Fresh positive evidence, by contrast, resurrects it.
	feedReports(t, ctrl, env.H.H, nil)
	if _, err := ctrl.Reallocate(); err != nil {
		t.Fatal(err)
	}
	if ctrl.TXState(7) != LinkHealthy {
		t.Errorf("TX 7 state after recovery evidence = %v, want healthy", ctrl.TXState(7))
	}
}

// TestDarkReceiverLeavesOthersServed reports all-zero gains for one of two
// receivers — no transmitter reaches it — and requires the plan to serve
// the other and leave the dark one without a beamspot, under the heuristic
// and under Optimal, which refuses the same environment when called
// directly.
func TestDarkReceiverLeavesOthersServed(t *testing.T) {
	params, ledModel := testParams()
	gains, m := trueGains(36)
	const dark, lit = 0, 1
	for j := range gains {
		gains[j][dark] = 0
	}
	budget := units.Watts(0.6)
	for _, policy := range []alloc.Policy{
		alloc.Heuristic{Kappa: 1.3, AllowPartial: true},
		alloc.Optimal{Workers: 1},
	} {
		t.Run(policy.Name(), func(t *testing.T) {
			ctrl := NewController(len(gains), m, policy, budget, params, ledModel)
			feedReports(t, ctrl, gains, nil)
			plan, err := ctrl.Reallocate()
			if err != nil {
				t.Fatalf("one dark receiver failed the decision: %v", err)
			}
			if got := plan.ServedBy[dark]; len(got) != 0 {
				t.Errorf("dark RX %d served by %v", dark, got)
			}
			if plan.Leader[dark] != -1 {
				t.Errorf("dark RX %d has leader %d", dark, plan.Leader[dark])
			}
			if len(plan.ServedBy[lit]) == 0 {
				t.Fatalf("lit RX %d left unserved", lit)
			}
			if p := plan.Swings.CommPower(params.DynamicResistance); p > budget+1e-9 {
				t.Errorf("plan draws %v, budget %v", p, budget)
			}
			env := &alloc.Env{Params: params, LED: ledModel, H: ctrl.env.H}
			if ev := alloc.Evaluate(env, plan.Swings); !(ev.Throughput[lit] > 0) {
				t.Errorf("lit RX %d throughput %v, want positive", lit, ev.Throughput[lit])
			}
		})
	}
}
