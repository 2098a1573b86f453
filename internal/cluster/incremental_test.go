package cluster

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"densevlc/internal/alloc"
	"densevlc/internal/channel"
	"densevlc/internal/scenario"
	"densevlc/internal/stats"
)

// TestIncrementalVsScratchAllDirty is the workspace equivalence property:
// SolveDirtyContext with every cluster dirty equals a plain Solve bit for bit,
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
			got, err := w.SolveDirtyContext(context.Background(), env, paperBudget, allDirty)
			if err != nil {
				t.Fatal(err)
			}
			assertSameSwings(t, got, want, "all-dirty re-solve")
		}
	}
}

// TestWorkspaceDirtyRefreshFollowsGains checks the dirty-aware refresh:
// a cluster whose gains changed while it was marked clean keeps its cached
// sub-plan, and the moment it goes dirty its sub-environment is re-sliced
// from the live matrix — the next solve matches a from-scratch one exactly.
func TestWorkspaceDirtyRefreshFollowsGains(t *testing.T) {
	rng := stats.NewRand(73)
	setup := scenario.Default()
	env := setup.Env(setup.UniformRXs(rng, 6), nil)
	sp := Spec{Threshold: 0.6}

	w := NewWorkspace(sp, alloc.Heuristic{AllowPartial: true}, 1)
	if _, err := w.Solve(env, paperBudget); err != nil {
		t.Fatal(err)
	}

	// Drift every gain (keeping the formation stable enough to reuse) while
	// claiming everything is clean: every cluster must keep its cached
	// sub-plan, the very matrix with the very values. The stitched matrix
	// is no witness here, since the boundary coordination pass re-damps it
	// against the live gains every solve.
	members := slices.Clone(w.members)
	cached := make([]channel.Swings, len(w.subs))
	before := make([]channel.Swings, len(w.subs))
	for c, sub := range w.subs {
		cached[c], before[c] = sub.swings, sub.swings.Clone()
	}
	for j := range env.H.H {
		for i := range env.H.H[j] {
			env.H.H[j][i] *= 1.001
		}
	}
	if _, err := w.SolveDirtyContext(context.Background(), env, paperBudget, func(int) bool { return false }); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(w.members, members) {
		t.Skip("perturbation changed the formation; the reuse contract does not apply")
	}
	for c, sub := range w.subs {
		if len(cached[c]) > 0 && &sub.swings[0] != &cached[c][0] {
			t.Errorf("clean cluster %d was re-solved", c)
		}
		assertSameSwings(t, sub.swings, before[c], fmt.Sprintf("clean cluster %d under drifted gains", c))
	}

	// Now mark everything dirty: the refresh must pick up the drifted gains
	// and reproduce a from-scratch solve on the same matrix.
	got, err := w.SolveDirtyContext(context.Background(), env, paperBudget, func(int) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewWorkspace(sp, alloc.Heuristic{AllowPartial: true}, 1).Solve(env, paperBudget)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSwings(t, got, want, "dirty re-solve after drift")
}

// TestSolveContextHonoursCancellation: a cancelled context aborts
// SolveDirtyContext on both the serial and the parallel path.
func TestSolveContextHonoursCancellation(t *testing.T) {
	rng := stats.NewRand(79)
	setup := scenario.Default()
	env := setup.Env(setup.UniformRXs(rng, 6), nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		w := NewWorkspace(Spec{Threshold: 0.6}, alloc.Heuristic{AllowPartial: true}, workers)
		if _, err := w.SolveDirtyContext(ctx, env, paperBudget, nil); err == nil {
			t.Errorf("workers=%d: cancelled solve returned nil error", workers)
		}
	}
}
