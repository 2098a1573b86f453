package mac

import (
	"sync"
	"testing"

	"densevlc/internal/alloc"
	"densevlc/internal/channel"
	"densevlc/internal/cluster"
	"densevlc/internal/scenario"
	"densevlc/internal/stats"
	"densevlc/internal/testutil"
	"densevlc/internal/units"
)

// countingPolicy counts Allocate calls; per-cluster solves may run
// concurrently, so the counter is locked.
type countingPolicy struct {
	inner alloc.Policy
	mu    sync.Mutex
	calls int
}

func (p *countingPolicy) Name() string { return p.inner.Name() }

func (p *countingPolicy) Allocate(env *alloc.Env, budget units.Watts) (channel.Swings, error) {
	p.mu.Lock()
	p.calls++
	p.mu.Unlock()
	return p.inner.Allocate(env, budget)
}

func (p *countingPolicy) take() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := p.calls
	p.calls = 0
	return n
}

// TestShardedControllerMatchesGlobal feeds the same reports to a default
// controller and to one sharded with the all-covering formation over four
// workers, and requires both plans to match a direct Allocate on the
// reported environment bit for bit: the controller-level face of the
// cluster-vs-global equivalence contract.
func TestShardedControllerMatchesGlobal(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	set := scenario.Default()
	env := set.Env(scenario.Fig7Instance(), nil)
	budget := units.Watts(1.19)
	for _, policy := range []alloc.Policy{
		alloc.Heuristic{Kappa: 1.3, AllowPartial: true},
		alloc.Optimal{Workers: 1},
	} {
		want, err := policy.Allocate(env, budget)
		if err != nil {
			t.Fatal(err)
		}
		plain := NewController(env.H.N, env.H.M, policy, budget, set.Params, set.LED)
		sharded := NewController(env.H.N, env.H.M, policy, budget, set.Params, set.LED)
		sharded.EnableSharding(cluster.Spec{}, 4)
		for _, ctrl := range []*Controller{plain, sharded} {
			for epoch := 0; epoch < 3; epoch++ {
				feedReports(t, ctrl, env.H.H, nil)
				plan, err := ctrl.Reallocate()
				if err != nil {
					t.Fatal(err)
				}
				for j := range want {
					for i := range want[j] {
						if plan.Swings[j][i] != want[j][i] {
							t.Fatalf("%s epoch %d: swing (%d,%d) = %v, direct solve %v",
								policy.Name(), epoch, j, i, plan.Swings[j][i], want[j][i])
						}
					}
				}
				for i, lead := range plan.Leader {
					if w := directLeader(env.H.H, want, i); lead != w {
						t.Fatalf("%s epoch %d: leader[%d] = %d, direct solve %d", policy.Name(), epoch, i, lead, w)
					}
				}
			}
			if c := ctrl.Clustering(); c.K() != 1 {
				t.Fatalf("all-covering formation: %d clusters, want 1", c.K())
			}
		}
	}
}

// directLeader is the beamspot leader of rx under swings: the serving
// transmitter with the best gain, or -1.
func directLeader(gains [][]float64, swings channel.Swings, rx int) int {
	lead, best := -1, 0.0
	for j := range swings {
		if swings[j][rx] > 0 && gains[j][rx] > best {
			lead, best = j, gains[j][rx]
		}
	}
	return lead
}

// TestShardedControllerDirtyReuse checks the per-cluster re-allocation
// contract: no fresh reports → no solves; a report from one cluster's
// receiver re-solves only that cluster.
func TestShardedControllerDirtyReuse(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	set := scenario.Default()
	rng := stats.NewRand(29)
	env := set.Env(set.UniformRXs(rng, 6), nil)
	probe := &countingPolicy{inner: alloc.Heuristic{AllowPartial: true}}
	ctrl := NewController(env.H.N, env.H.M, probe, 1.19, set.Params, set.LED)
	ctrl.EnableSharding(cluster.Spec{Threshold: 0.6}, 1)

	feedReports(t, ctrl, env.H.H, nil)
	first, err := ctrl.Reallocate()
	if err != nil {
		t.Fatal(err)
	}
	k := ctrl.Clustering().K()
	if k < 2 {
		t.Fatalf("formation yielded %d clusters; the reuse test needs at least 2", k)
	}
	if calls := probe.take(); calls != k {
		t.Fatalf("first epoch solved %d clusters, want %d", calls, k)
	}

	// Epoch with no reports: every cluster is clean, the plan is re-stitched
	// from the caches unchanged.
	again, err := ctrl.Reallocate()
	if err != nil {
		t.Fatal(err)
	}
	if calls := probe.take(); calls != 0 {
		t.Errorf("no-report epoch solved %d clusters, want 0", calls)
	}
	for j := range first.Swings {
		for i := range first.Swings[j] {
			if first.Swings[j][i] != again.Swings[j][i] {
				t.Fatalf("no-report epoch changed swing (%d,%d)", j, i)
			}
		}
	}

	// One receiver reports (same gains): only its cluster re-solves.
	rx := ctrl.Clustering().Clusters[0].RXs[0]
	node := NewRXNode(rx, ctrl.N)
	for tx := 0; tx < ctrl.N; tx++ {
		if err := node.RecordMeasurement(tx, env.H.H[tx][rx]); err != nil {
			t.Fatal(err)
		}
	}
	if err := ctrl.HandleUplink(node.BuildReport()); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Reallocate(); err != nil {
		t.Fatal(err)
	}
	if calls := probe.take(); calls != 1 {
		t.Errorf("single-report epoch solved %d clusters, want 1", calls)
	}
}

// TestShardedControllerRecovery kills a transmitter and checks that a
// threshold:0.5 formation excludes it within one control epoch, as the
// all-covering one does.
func TestShardedControllerRecovery(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	set := scenario.Default()
	env := set.Env(scenario.Fig7Instance(), nil)
	ctrl := NewController(env.H.N, env.H.M, alloc.Heuristic{Kappa: 1.3, AllowPartial: true},
		1.19, set.Params, set.LED)
	ctrl.EnableSharding(cluster.Spec{Threshold: 0.5}, 2)

	feedReports(t, ctrl, env.H.H, nil)
	plan, err := ctrl.Reallocate()
	if err != nil {
		t.Fatal(err)
	}
	// Kill the busiest TX of the healthy plan.
	victim := 0
	for j := range plan.Swings {
		if plan.Swings.TXTotal(j) > plan.Swings.TXTotal(victim) {
			victim = j
		}
	}
	feedReports(t, ctrl, env.H.H, map[int]bool{victim: true})
	plan, err = ctrl.Reallocate()
	if err != nil {
		t.Fatal(err)
	}
	for i := range plan.Swings[victim] {
		if plan.Swings[victim][i] > 0 {
			t.Fatalf("killed TX %d still carries swing %v to RX %d", victim, plan.Swings[victim][i], i)
		}
	}
	if p := plan.Swings.CommPower(set.Params.DynamicResistance); p > 1.19+1e-9 {
		t.Errorf("post-failure plan power %v exceeds budget", p)
	}
}

// TestRefreshEnvIsAllocationFree pins the Env() fix: the re-allocation path
// refreshes the controller's persistent environment in place instead of
// building a fresh matrix per call.
func TestRefreshEnvIsAllocationFree(t *testing.T) {
	set := scenario.Default()
	env := set.Env(scenario.Fig7Instance(), nil)
	ctrl := NewController(env.H.N, env.H.M, alloc.Heuristic{AllowPartial: true},
		1.19, set.Params, set.LED)
	feedReports(t, ctrl, env.H.H, nil)
	ctrl.refreshEnv(nil) // warm the persistent matrix
	if n := testing.AllocsPerRun(100, func() { ctrl.refreshEnv(nil) }); n != 0 {
		t.Errorf("refreshEnv allocates %.1f times steady-state, want 0", n)
	}
}
