package cluster

import (
	"context"
	"math"
	"sync"
	"testing"

	"densevlc/internal/alloc"
	"densevlc/internal/channel"
	"densevlc/internal/scenario"
	"densevlc/internal/stats"
	"densevlc/internal/units"
)

// countingPolicy wraps an inner policy and counts Allocate calls.
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

func TestWorkspaceDeterministicAcrossWorkers(t *testing.T) {
	rng := stats.NewRand(29)
	setup := scenario.Default()
	env := setup.Env(setup.UniformRXs(rng, 6), nil)
	sp := Spec{Threshold: 0.6}
	inner := alloc.Heuristic{AllowPartial: true}

	var ref channel.Swings
	for _, workers := range []int{1, 2, 8} {
		w := NewWorkspace(sp, inner, workers)
		got, err := w.Solve(env, paperBudget)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got.Clone()
			continue
		}
		for j := range ref {
			for i := range ref[j] {
				if got[j][i] != ref[j][i] {
					t.Fatalf("workers=%d: swing (%d,%d) = %v, workers=1 got %v",
						workers, j, i, got[j][i], ref[j][i])
				}
			}
		}
	}
}

// TestWorkspaceDirtyCache checks SolveDirtyContext's reuse contract: clean clusters
// keep their cached sub-solution (the inner policy is not consulted), dirty
// clusters re-solve, and the stitched result always equals a fresh solve.
func TestWorkspaceDirtyCache(t *testing.T) {
	rng := stats.NewRand(31)
	setup := scenario.Default()
	env := setup.Env(setup.UniformRXs(rng, 6), nil)
	sp := Spec{Threshold: 0.6}
	probe := &countingPolicy{inner: alloc.Heuristic{AllowPartial: true}}
	w := NewWorkspace(sp, probe, 1)

	first, err := w.Solve(env, paperBudget)
	if err != nil {
		t.Fatal(err)
	}
	first = first.Clone()
	k := w.Clustering().K()
	if got := probe.take(); got != k {
		t.Fatalf("first solve consulted the policy %d times, want %d (one per cluster)", got, k)
	}
	if k < 2 {
		t.Fatalf("formation yielded %d clusters; the reuse test needs at least 2", k)
	}

	// All clean: zero policy calls, identical stitched output.
	again, err := w.SolveDirtyContext(context.Background(), env, paperBudget, func(int) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if got := probe.take(); got != 0 {
		t.Errorf("all-clean solve consulted the policy %d times", got)
	}
	assertSameSwings(t, again, first, "all-clean")

	// One dirty cluster: exactly one policy call, same output (gains are
	// unchanged, so the re-solve reproduces the cache).
	got, err := w.SolveDirtyContext(context.Background(), env, paperBudget, func(c int) bool { return c == 1 })
	if err != nil {
		t.Fatal(err)
	}
	if calls := probe.take(); calls != 1 {
		t.Errorf("one-dirty solve consulted the policy %d times, want 1", calls)
	}
	assertSameSwings(t, got, first, "one-dirty")

	// A topology change invalidates every cache even under an all-clean
	// mask: membership changed, so cluster-local indices changed meaning.
	env2 := setup.Env(setup.UniformRXs(rng, 6), nil)
	fresh := NewWorkspace(sp, alloc.Heuristic{AllowPartial: true}, 1)
	want, err := fresh.Solve(env2, paperBudget)
	if err != nil {
		t.Fatal(err)
	}
	got, err = w.SolveDirtyContext(context.Background(), env2, paperBudget, func(int) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if calls := probe.take(); calls != w.Clustering().K() {
		t.Errorf("topology change consulted the policy %d times, want %d", calls, w.Clustering().K())
	}
	assertSameSwings(t, got, want, "topology change")
}

// TestWorkspaceSteadyStateIsAllocationFree pins the re-allocation fix: once
// the workspace has warmed up, a solve that re-forms the (unchanged)
// clustering, verifies membership, refreshes every sub-environment, and
// re-stitches the cached sub-solutions stays off the heap entirely. The
// stitch and slice kernels are additionally //lint:hotpath, so hotalloc
// proves them allocation-free statically.
func TestWorkspaceSteadyStateIsAllocationFree(t *testing.T) {
	rng := stats.NewRand(37)
	setup := scenario.Default()
	env := setup.Env(setup.UniformRXs(rng, 6), nil)
	clean := func(int) bool { return false }
	for _, sp := range []Spec{{Threshold: 0.6}, {Mode: ModeTopK, TopK: 3}} {
		w := NewWorkspace(sp, alloc.Heuristic{AllowPartial: true}, 1)
		if _, err := w.Solve(env, paperBudget); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, err := w.SolveDirtyContext(context.Background(), env, paperBudget, clean); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%v: steady-state SolveDirtyContext allocates %.1f times, want 0", sp, n)
		}
	}
}

// TestWorkspaceSolveAliasesBuffer documents the ownership contract: the
// returned matrix aliases the workspace and is overwritten by the next
// solve; Sharded.Allocate detaches via Clone.
func TestWorkspaceSolveAliasesBuffer(t *testing.T) {
	env := paperEnv(t)
	w := NewWorkspace(Spec{Threshold: 0.5}, alloc.Heuristic{AllowPartial: true}, 1)
	a, err := w.Solve(env, paperBudget)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.Solve(env, paperBudget)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Error("second solve did not reuse the stitch buffer")
	}
	sh := Sharded{Inner: alloc.Heuristic{AllowPartial: true}, Spec: Spec{Threshold: 0.5}}
	c1, err := sh.Allocate(env, paperBudget)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := sh.Allocate(env, paperBudget)
	if err != nil {
		t.Fatal(err)
	}
	if &c1[0] == &c2[0] {
		t.Error("Sharded.Allocate returned aliased matrices")
	}
}

func TestWorkspaceRejectsBadInput(t *testing.T) {
	env := paperEnv(t)
	w := NewWorkspace(Spec{Threshold: 0.5}, alloc.Heuristic{AllowPartial: true}, 1)
	if _, err := w.Solve(env, -1); err == nil {
		t.Error("negative budget accepted")
	}
	bad := NewWorkspace(Spec{Threshold: 2}, alloc.Heuristic{AllowPartial: true}, 1)
	if _, err := bad.Solve(env, paperBudget); err == nil {
		t.Error("invalid spec accepted")
	}
	if _, err := w.Solve(&alloc.Env{}, paperBudget); err == nil {
		t.Error("invalid env accepted")
	}
}

// TestShardedRefusesNonFiniteBudget feeds an all-zero 36×4 environment,
// where every receiver is TX-less and no policy runs, so the sharded
// solver's own check is the only one: it must refuse what the policy would.
func TestShardedRefusesNonFiniteBudget(t *testing.T) {
	set := scenario.Default()
	env := &alloc.Env{Params: set.Params, LED: set.LED, H: channel.NewMatrix(36, 4)}
	policy := alloc.Heuristic{AllowPartial: true}
	sh := Sharded{Inner: policy}
	for _, budget := range []units.Watts{units.Watts(math.NaN()), units.Watts(math.Inf(1))} {
		if _, err := policy.Allocate(env, budget); err == nil {
			t.Fatalf("policy accepts budget %v", budget)
		}
		if _, err := sh.Allocate(env, budget); err == nil {
			t.Errorf("sharded solve accepts budget %v", budget)
		}
	}
}

func TestShardedName(t *testing.T) {
	sh := Sharded{Inner: alloc.Heuristic{}, Spec: Spec{Threshold: 0.5}}
	if got := sh.Name(); got != "sharded[threshold:0.5:union]/heuristic(κ=1.30)" {
		t.Errorf("Name() = %q", got)
	}
}

func assertSameSwings(t *testing.T, got, want channel.Swings, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for j := range want {
		for i := range want[j] {
			if got[j][i] != want[j][i] {
				t.Fatalf("%s: swing (%d,%d) = %v, want %v", label, j, i, got[j][i], want[j][i])
			}
		}
	}
}
