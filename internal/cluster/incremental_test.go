package cluster

import (
	"context"
	"testing"

	"densevlc/internal/alloc"
	"densevlc/internal/scenario"
	"densevlc/internal/stats"
)

// TestIncrementalVsScratchAllDirty is the workspace equivalence property:
// SolveDirty with every cluster dirty equals a plain Solve bit for bit,
// whatever formation and worker count — the dirty plumbing may only skip
// work, never change results.
func TestIncrementalVsScratchAllDirty(t *testing.T) {
	rng := stats.NewRand(71)
	setup := scenario.Default()
	allDirty := func(int) bool { return true }
	for _, sp := range []Spec{{Threshold: 0.6}, {Mode: ModeTopK, TopK: 3}, {Threshold: 0}} {
		for _, workers := range []int{1, 4} {
			env := setup.Env(setup.UniformRXs(rng, 6), nil)
			ref := NewWorkspace(sp, alloc.Heuristic{AllowPartial: true}, workers)
			want, err := ref.Solve(env, paperBudget)
			if err != nil {
				t.Fatal(err)
			}
			want = want.Clone()

			w := NewWorkspace(sp, alloc.Heuristic{AllowPartial: true}, workers)
			if _, err := w.Solve(env, paperBudget); err != nil {
				t.Fatal(err)
			}
			got, err := w.SolveDirty(env, paperBudget, allDirty)
			if err != nil {
				t.Fatal(err)
			}
			assertSameSwings(t, got, want, "all-dirty re-solve")
		}
	}
}

// TestWorkspaceDirtyRefreshFollowsGains checks the dirty-aware refresh:
// a cluster whose gains changed while it was marked clean keeps serving its
// cached plan, and the moment it goes dirty its sub-environment is
// re-sliced from the live matrix — the next solve matches a from-scratch
// one exactly.
func TestWorkspaceDirtyRefreshFollowsGains(t *testing.T) {
	rng := stats.NewRand(73)
	setup := scenario.Default()
	env := setup.Env(setup.UniformRXs(rng, 6), nil)
	sp := Spec{Threshold: 0.6}

	// Disable the boundary-coordination pass: it re-damps the stitched
	// matrix against the live gains every solve, which is exactly what this
	// test must hold still to observe the refresh skip.
	w := NewWorkspace(sp, alloc.Heuristic{AllowPartial: true}, 1)
	w.BoundaryTolerance = -1
	if _, err := w.Solve(env, paperBudget); err != nil {
		t.Fatal(err)
	}

	// Drift every gain (keeping the formation stable enough to reuse) while
	// claiming everything is clean: the workspace must keep the cached
	// stitch untouched.
	cached, err := w.SolveDirty(env, paperBudget, func(int) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	before := cached.Clone()
	for j := range env.H.H {
		for i := range env.H.H[j] {
			env.H.H[j][i] *= 1.001
		}
	}
	cached, err = w.SolveDirty(env, paperBudget, func(int) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if !w.sameMembers(env.H.N, env.H.M) {
		t.Skip("perturbation changed the formation; the reuse contract does not apply")
	}
	assertSameSwings(t, cached, before, "clean clusters under drifted gains")

	// Now mark everything dirty: the refresh must pick up the drifted gains
	// and reproduce a from-scratch solve on the same matrix.
	got, err := w.SolveDirty(env, paperBudget, func(int) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewWorkspace(sp, alloc.Heuristic{AllowPartial: true}, 1)
	fresh.BoundaryTolerance = -1
	want, err := fresh.Solve(env, paperBudget)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSwings(t, got, want, "dirty re-solve after drift")
}

// TestSolveContextHonoursCancellation: a cancelled context aborts the solve
// on both the serial and the parallel path.
func TestSolveContextHonoursCancellation(t *testing.T) {
	rng := stats.NewRand(79)
	setup := scenario.Default()
	env := setup.Env(setup.UniformRXs(rng, 6), nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		w := NewWorkspace(Spec{Threshold: 0.6}, alloc.Heuristic{AllowPartial: true}, workers)
		if _, err := w.SolveContext(ctx, env, paperBudget); err == nil {
			t.Errorf("workers=%d: cancelled solve returned nil error", workers)
		}
	}
}
