package cluster

import (
	"math"
	"sync"
	"testing"

	"densevlc/internal/alloc"
	"densevlc/internal/channel"
	"densevlc/internal/scenario"
	"densevlc/internal/stats"
	"densevlc/internal/units"
)

// paperBudget is the paper's total communication power budget P_C,tot.
const paperBudget units.Watts = 1.19

// maxSumLogGap is the pinned equivalence gap: on seeded paper rooms, the
// sharded solve at any formation in the sweep below stays within this many
// sum-log units of the global solve. The worst gap measured across the
// sweep is 4.30 (a 3-cluster threshold formation that splits a beamspot);
// the pin leaves ~40% headroom for numerical drift while still catching a
// broken budget split or index map, which costs far more than 6 log units.
const maxSumLogGap = 6.0

// TestSingleClusterBitIdenticalToGlobal is the heart of the equivalence
// contract: the all-covering formation (threshold 0, union merge) must
// reproduce the global solve bit for bit — identity index maps, the budget
// verbatim, no boundary damping — for both policies, on the Fig. 7 instance
// and on seeded random rooms. The Fig. 7 instance with RX 4 dark (a vacant
// churn slot) forms one TX-owning cluster plus the dark receiver's TX-less
// one, and must still spend the whole budget as the global heuristic does;
// the optimal solve refuses an unservable receiver by design, so that input
// runs the heuristic only.
func TestSingleClusterBitIdenticalToGlobal(t *testing.T) {
	rng := stats.NewRand(3)
	setup := scenario.Default()
	placements := setup.RandomInstances(rng, 4)
	placements = append(placements, scenario.Fig7Instance())

	type input struct {
		env      *alloc.Env
		policies []alloc.Policy
	}
	var inputs []input
	for _, rx := range placements {
		inputs = append(inputs, input{setup.Env(rx, nil), []alloc.Policy{
			alloc.Optimal{},
			alloc.Heuristic{AllowPartial: true},
		}})
	}
	dark := setup.Env(scenario.Fig7Instance(), nil)
	for j := range dark.H.H {
		dark.H.H[j][3] = 0
	}
	inputs = append(inputs, input{dark, []alloc.Policy{
		alloc.Heuristic{AllowPartial: true},
		alloc.Heuristic{},
	}})

	for _, in := range inputs {
		env := in.env
		for _, inner := range in.policies {
			global, err := inner.Allocate(env, paperBudget)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				sh := Sharded{Inner: inner, Spec: Spec{}, Workers: workers}
				got, err := sh.Allocate(env, paperBudget)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(global) {
					t.Fatalf("%s: %d rows, want %d", sh.Name(), len(got), len(global))
				}
				for j := range global {
					for i := range global[j] {
						if got[j][i] != global[j][i] {
							t.Fatalf("%s workers=%d: swing (%d,%d) = %v, global %v",
								sh.Name(), workers, j, i, got[j][i], global[j][i])
						}
					}
				}
			}
		}
	}
}

// TestShardedFormationSweep is the randomized property sweep: across seeded
// receiver placements and a grid of formations spanning k = 1..M clusters,
// the stitched allocation must respect the total power budget, the per-TX
// swing bound and non-negativity, the clustering must pass its invariant
// checker, and the sum-log objective must stay within the pinned gap of the
// global solve whenever every receiver is served.
func TestShardedFormationSweep(t *testing.T) {
	rng := stats.NewRand(17)
	setup := scenario.Default()
	inner := alloc.Heuristic{AllowPartial: true}
	specs := []Spec{
		{Threshold: 0},
		{Threshold: 0.2},
		{Threshold: 0.5},
		{Threshold: 0.8},
		{Threshold: 1},
		{Mode: ModeTopK, TopK: 1},
		{Mode: ModeTopK, TopK: 4},
		{Mode: ModeTopK, TopK: 9},
		{Threshold: 0.5, Merge: MergeNone},
		{Mode: ModeTopK, TopK: 4, Merge: MergeNone},
	}
	r := setup.Params.DynamicResistance
	maxSwing := setup.LED.MaxSwing

	sawK := map[int]bool{}
	for trial := 0; trial < 6; trial++ {
		var rx = setup.RandomInstance(rng)
		if trial >= 3 {
			rx = setup.UniformRXs(rng, 4)
		}
		env := setup.Env(rx, nil)
		globalSwings, err := inner.Allocate(env, paperBudget)
		if err != nil {
			t.Fatal(err)
		}
		globalEval := alloc.Evaluate(env, globalSwings)

		for _, sp := range specs {
			w := NewWorkspace(sp, inner, 2)
			got, err := w.Solve(env, paperBudget)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, sp, err)
			}
			clus := w.Clustering()
			if err := clus.Validate(env.N(), env.M()); err != nil {
				t.Fatalf("trial %d %v: %v", trial, sp, err)
			}
			k := clus.K()
			sawK[k] = true
			if k < 1 || k > env.M() {
				t.Fatalf("trial %d %v: k = %d outside [1,%d]", trial, sp, k, env.M())
			}

			if p := got.CommPower(r); p > paperBudget+1e-9 {
				t.Errorf("trial %d %v: power %v exceeds budget %v", trial, sp, p, paperBudget)
			}
			for j := range got {
				if tot := got.TXTotal(j); tot > maxSwing+1e-9 {
					t.Errorf("trial %d %v: TX %d total swing %v", trial, sp, j, tot)
				}
				for i := range got[j] {
					if got[j][i] < 0 {
						t.Errorf("trial %d %v: negative swing at (%d,%d)", trial, sp, j, i)
					}
					// A TX may only serve receivers of its own cluster: a
					// foreign positive swing means the stitch wrote out of
					// bounds or an index map leaked across clusters.
					if got[j][i] > 0 && clus.TXOf[j] != clus.RXOf[i] {
						t.Errorf("trial %d %v: TX %d (cluster %d) serves foreign RX %d (cluster %d)",
							trial, sp, j, clus.TXOf[j], i, clus.RXOf[i])
					}
				}
			}

			ev := alloc.Evaluate(env, got)
			if math.IsInf(ev.SumLog, -1) {
				continue // a starved RX: the gap is defined over served instances
			}
			if gap := globalEval.SumLog - ev.SumLog; gap > maxSumLogGap {
				t.Errorf("trial %d %v (k=%d): sum-log gap %.3f exceeds pinned %.1f",
					trial, sp, k, gap, maxSumLogGap)
			}
		}
	}
	// The sweep must actually exercise the extremes: one all-covering
	// cluster and the fully split per-RX formation.
	if !sawK[1] || !sawK[4] {
		t.Fatalf("sweep never produced k=1 and k=M clusterings: %v", sawK)
	}
}

// budgetProbe records the budget each cluster solve receives.
type budgetProbe struct {
	mu     sync.Mutex
	shares []units.Watts
}

func (p *budgetProbe) Name() string { return "probe" }

func (p *budgetProbe) Allocate(env *alloc.Env, budget units.Watts) (channel.Swings, error) {
	p.mu.Lock()
	p.shares = append(p.shares, budget)
	p.mu.Unlock()
	return channel.NewSwings(env.N(), env.M()), nil
}

// TestBudgetSplitSumsToBudget checks the budget split is conservative: the
// per-cluster shares sum to the global budget (up to float accumulation)
// and each share is proportional to the cluster's receiver count.
func TestBudgetSplitSumsToBudget(t *testing.T) {
	env := paperEnv(t)
	for _, sp := range []Spec{{Threshold: 0.9}, {Threshold: 0.5, Merge: MergeNone}, {Mode: ModeTopK, TopK: 2}} {
		probe := &budgetProbe{}
		w := NewWorkspace(sp, probe, 1)
		if _, err := w.Solve(env, paperBudget); err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, s := range probe.shares {
			if s < 0 {
				t.Fatalf("%v: negative share %v", sp, s)
			}
			sum += s.W()
		}
		// TX-less clusters are never solved, so probe sees ≤ K shares; the
		// solved shares can then sum below the budget — never above it.
		if sum > paperBudget.W()*(1+1e-9) {
			t.Errorf("%v: shares sum to %.6f, budget %.6f", sp, sum, paperBudget.W())
		}
		if len(probe.shares) == w.Clustering().K() && math.Abs(sum-paperBudget.W()) > 1e-9*paperBudget.W() {
			t.Errorf("%v: all %d clusters solved but shares sum to %.9f, want %.9f",
				sp, len(probe.shares), sum, paperBudget.W())
		}
	}
}
