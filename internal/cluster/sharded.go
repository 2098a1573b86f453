package cluster

import (
	"context"
	"fmt"
	"math"

	"densevlc/internal/alloc"
	"densevlc/internal/channel"
	"densevlc/internal/parallel"
	"densevlc/internal/units"
)

// DefaultBoundaryTolerance is the leak fraction above which the coordination
// pass damps a boundary transmitter (see Workspace.coordinate).
const DefaultBoundaryTolerance = 0.25

// Sharded runs any alloc.Policy per cooperation cluster and stitches the
// per-cluster solutions into one global swing matrix. It implements
// alloc.Policy, so everything that takes a policy — the controller, sweeps,
// experiments — can shard transparently.
//
// Feasibility is compositional: clusters own disjoint transmitters, so the
// per-TX swing bound (6) holds cluster-locally, and the budget is split
// across clusters in proportion to their receiver count, so the total power
// constraint (7) holds globally. When formation yields a single all-covering
// cluster the solve degenerates to the global one — identity index maps, the
// full budget, the same policy — and reproduces it bit for bit (pinned by
// the equivalence suite).
//
// Allocate is stateless and deterministic for every Workers value. Callers
// on a steady re-allocation path should hold a Workspace instead, which
// reuses formation scratch, sub-environments and the stitch buffer.
type Sharded struct {
	// Inner solves each cluster's sub-problem.
	Inner alloc.Policy
	// Spec picks the formation rule.
	Spec Spec
	// Workers bounds the per-cluster fan-out (0 = all cores, 1 = serial).
	// The stitched result is identical for every value.
	Workers int
	// BoundaryTolerance is the cross-cluster leak fraction above which the
	// coordination pass damps a transmitter (0 selects
	// DefaultBoundaryTolerance; negative disables the pass).
	BoundaryTolerance float64
}

// Name implements alloc.Policy.
func (s Sharded) Name() string {
	return fmt.Sprintf("sharded[%s]/%s", s.Spec, s.Inner.Name())
}

// Allocate implements alloc.Policy via a throwaway workspace.
func (s Sharded) Allocate(env *alloc.Env, budget units.Watts) (channel.Swings, error) {
	w := NewWorkspace(s.Spec, s.Inner, s.Workers)
	w.BoundaryTolerance = s.BoundaryTolerance
	got, err := w.Solve(env, budget)
	if err != nil {
		return nil, err
	}
	return got.Clone(), nil // detach from the workspace buffer
}

// Workspace is the reusable state of a sharded solver: the clustering and
// its formation scratch, one sub-environment per cluster (channel matrices
// resized only when the topology changes), the per-cluster solution cache,
// and the global stitch buffer. A steady-state re-solve with unchanged
// membership allocates nothing outside the inner policy (pinned by
// AllocsPerRun in workspace_test.go; the stitch and refresh kernels are
// //lint:hotpath so hotalloc proves them allocation-free statically).
//
// A workspace is single-goroutine state — clusters fan out internally, but
// two goroutines must not share one workspace.
type Workspace struct {
	Spec  Spec
	Inner alloc.Policy
	// Workers bounds the per-cluster fan-out.
	Workers int
	// BoundaryTolerance as in Sharded.
	BoundaryTolerance float64

	clus   Clustering
	subs   []*subProblem
	global channel.Swings
	n, m   int

	// members is the flattened previous membership (TXs, -1, RXs, -2 per
	// cluster) used to detect topology changes without allocating.
	members []int
	shares  []units.Watts
	dirty   []bool
	// bestGain[rx] caches the receiver's strongest gain for the boundary
	// coordination pass.
	bestGain []float64
}

// subProblem is one cluster's reusable solve state.
type subProblem struct {
	env    alloc.Env
	swings channel.Swings // last solution, cluster-local indices
	n, m   int
}

// NewWorkspace builds an empty workspace; buffers grow on first Solve.
func NewWorkspace(sp Spec, inner alloc.Policy, workers int) *Workspace {
	return &Workspace{Spec: sp, Inner: inner, Workers: workers}
}

// Clustering exposes the current shard map (valid after a Solve).
func (w *Workspace) Clustering() *Clustering { return &w.clus }

// Solve forms clusters from env.H and solves every cluster. The returned
// swing matrix aliases the workspace stitch buffer — it is valid until the
// next Solve; callers that retain it must Clone.
func (w *Workspace) Solve(env *alloc.Env, budget units.Watts) (channel.Swings, error) {
	//lint:ignore ctxflow context-free convenience wrapper over SolveContext, which accepts the caller's context
	return w.SolveDirtyContext(context.Background(), env, budget, nil)
}

// SolveContext is Solve under the caller's context: cancellation stops the
// per-cluster fan-out between cluster solves.
func (w *Workspace) SolveContext(ctx context.Context, env *alloc.Env, budget units.Watts) (channel.Swings, error) {
	return w.SolveDirtyContext(ctx, env, budget, nil)
}

// SolveDirty is Solve with per-cluster reuse: clusters for which dirty
// returns false — and whose membership survived re-formation unchanged —
// keep their cached sub-solution instead of re-solving. A nil dirty marks
// every cluster dirty. Membership changes force a re-solve regardless, so a
// stale cache can never leak across topologies.
func (w *Workspace) SolveDirty(env *alloc.Env, budget units.Watts, dirty func(c int) bool) (channel.Swings, error) {
	//lint:ignore ctxflow context-free convenience wrapper over SolveDirtyContext, which accepts the caller's context
	return w.SolveDirtyContext(context.Background(), env, budget, dirty)
}

// SolveDirtyContext is SolveDirty under the caller's context. Clean
// clusters skip both the re-solve and the sub-environment refresh — their
// cached sub-plans were computed from the gains they already hold — so a
// steady-state epoch costs formation, the dirty check and the stitch, not
// O(N·M) copying.
func (w *Workspace) SolveDirtyContext(ctx context.Context, env *alloc.Env, budget units.Watts, dirty func(c int) bool) (channel.Swings, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	if budget < 0 {
		return nil, fmt.Errorf("cluster: negative power budget %.3f", budget.W())
	}
	if err := w.clus.FormInto(env.H, w.Spec); err != nil {
		return nil, err
	}
	sameTopology := w.sameMembers(env.H.N, env.H.M)
	if !sameTopology {
		w.rebuild(env)
	}

	k := w.clus.K()
	w.shares = w.splitBudget(budget)
	w.dirty = resetBools(w.dirty, k)
	for c := 0; c < k; c++ {
		// A nil cache (first solve, or an earlier run that errored before
		// this cluster finished) always forces a re-solve.
		w.dirty[c] = !sameTopology || dirty == nil || dirty(c) || w.subs[c].swings == nil
	}
	w.refresh(env)

	// Per-cluster solves are independent (disjoint TXs, private sub-envs)
	// and collected by cluster index, so the stitched matrix is identical at
	// every worker count. One worker runs the loop inline — that path stays
	// allocation-free when every cluster is clean, which is what the
	// steady-state AllocsPerRun pin measures.
	if parallel.Workers(w.Workers) == 1 || k == 1 {
		for c := 0; c < k; c++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := w.solveCluster(c); err != nil {
				return nil, err
			}
		}
	} else {
		if err := parallel.ForEach(ctx, w.Workers, k, w.solveCluster); err != nil {
			return nil, err
		}
	}

	w.global = resetSwings(w.global, w.n, w.m)
	for c := 0; c < k; c++ {
		if w.subs[c].n == 0 {
			continue
		}
		cl := w.clus.Clusters[c]
		stitchInto(w.global, w.subs[c].swings, cl.TXs, cl.RXs)
	}
	w.coordinate(env)
	return w.global, nil
}

// solveCluster re-solves cluster c on its budget share if it is dirty. It is
// the ForEach task body: it writes only w.subs[c], which the pool hands to
// exactly one worker.
func (w *Workspace) solveCluster(c int) error {
	sub := w.subs[c]
	if sub.n == 0 {
		return nil // TX-less cluster: its RXs are unservable by any policy
	}
	if !w.dirty[c] {
		return nil
	}
	got, err := w.Inner.Allocate(&sub.env, w.shares[c])
	if err != nil {
		cl := w.clus.Clusters[c]
		return fmt.Errorf("cluster %d (%d TXs, %d RXs): %w", c, len(cl.TXs), len(cl.RXs), err)
	}
	//lint:ignore sharedmut per-cluster write: ForEach hands index c to exactly one worker and sub is w.subs[c]
	sub.swings = got
	return nil
}

// splitBudget divides the budget across clusters in proportion to their
// receiver counts. A single cluster gets the budget verbatim — no float
// round trip — so the all-covering formation stays bit-identical to the
// global solve.
func (w *Workspace) splitBudget(budget units.Watts) []units.Watts {
	k := w.clus.K()
	if cap(w.shares) < k {
		w.shares = make([]units.Watts, k)
	}
	shares := w.shares[:k]
	if k == 1 {
		shares[0] = budget
		return shares
	}
	for c, cl := range w.clus.Clusters {
		shares[c] = units.Watts(budget.W() * float64(len(cl.RXs)) / float64(w.m))
	}
	return shares
}

// rebuild resizes the per-cluster sub-problems after a membership change.
func (w *Workspace) rebuild(env *alloc.Env) {
	w.n, w.m = env.H.N, env.H.M
	k := w.clus.K()
	if cap(w.subs) < k {
		grown := make([]*subProblem, k)
		copy(grown, w.subs)
		w.subs = grown
	}
	w.subs = w.subs[:k]
	for c := 0; c < k; c++ {
		if w.subs[c] == nil {
			w.subs[c] = &subProblem{}
		}
		sub := w.subs[c]
		cl := w.clus.Clusters[c]
		sub.n, sub.m = len(cl.TXs), len(cl.RXs)
		if sub.n == 0 {
			continue
		}
		if sub.env.H == nil || sub.env.H.N != sub.n || sub.env.H.M != sub.m {
			sub.env.H = channel.NewMatrix(sub.n, sub.m)
		}
		sub.env.Params = env.Params
		sub.env.LED = env.LED
		sub.swings = nil // stale cache: cluster-local indices changed meaning
	}
	// Record the membership for the next sameMembers check.
	w.members = w.members[:0]
	for _, cl := range w.clus.Clusters {
		w.members = append(w.members, cl.TXs...)
		w.members = append(w.members, -1)
		w.members = append(w.members, cl.RXs...)
		w.members = append(w.members, -2)
	}
}

// sameMembers reports whether the freshly formed clustering matches the
// membership recorded by the last rebuild.
func (w *Workspace) sameMembers(n, m int) bool {
	if n != w.n || m != w.m || len(w.subs) != w.clus.K() {
		return false
	}
	i := 0
	for _, cl := range w.clus.Clusters {
		for _, tx := range cl.TXs {
			if i >= len(w.members) || w.members[i] != tx {
				return false
			}
			i++
		}
		if i >= len(w.members) || w.members[i] != -1 {
			return false
		}
		i++
		for _, rx := range cl.RXs {
			if i >= len(w.members) || w.members[i] != rx {
				return false
			}
			i++
		}
		if i >= len(w.members) || w.members[i] != -2 {
			return false
		}
		i++
	}
	return i == len(w.members)
}

// refresh copies the clusters' gain rows/columns from the global matrix into
// the sub-environments — dirty clusters only. A clean cluster's cached
// sub-plan was solved from the gains its sub-env already holds, and the
// cluster is re-sliced the moment it next goes dirty, so skipping it keeps
// the cache and its inputs consistent while making the steady state
// O(dirty), not O(N·M).
//
//lint:hotpath
func (w *Workspace) refresh(env *alloc.Env) {
	for c := range w.subs {
		sub := w.subs[c]
		if sub.n == 0 || !w.dirty[c] {
			continue
		}
		cl := w.clus.Clusters[c]
		sliceInto(sub.env.H, env.H, cl.TXs, cl.RXs)
	}
}

// sliceInto fills dst with src's rows txs and columns rxs: the sub-matrix
// extraction kernel of the sharded path.
//
//lint:hotpath
func sliceInto(dst, src *channel.Matrix, txs, rxs []int) {
	for a, j := range txs {
		drow, srow := dst.H[a], src.H[j]
		for b, i := range rxs {
			drow[b] = srow[i]
		}
	}
}

// stitchInto scatters a cluster-local swing matrix back into the global one
// through the cluster's index maps: the stitch kernel of the sharded path.
//
//lint:hotpath
func stitchInto(global, sub channel.Swings, txs, rxs []int) {
	for a, j := range txs {
		grow, srow := global[j], sub[a]
		for b, i := range rxs {
			grow[i] = srow[b]
		}
	}
}

// coordinate is the boundary pass: a transmitter whose gain to some foreign
// receiver (an RX outside its cluster) exceeds BoundaryTolerance times that
// receiver's best gain is an interference boundary the per-cluster solvers
// could not see. Its swings are damped by sqrt(tol/leak), which caps its
// cross-cluster interference power near the level a tol-fraction neighbour
// would cause while never adding power — the budget can only move down. The
// all-covering single cluster has no foreign receivers, so the pass is a
// provable no-op there.
func (w *Workspace) coordinate(env *alloc.Env) {
	tol := w.BoundaryTolerance
	if tol < 0 || w.clus.K() <= 1 {
		return
	}
	if tol == 0 {
		tol = DefaultBoundaryTolerance
	}
	h := env.H
	w.bestGain = resetFloats(w.bestGain, w.m)
	for j := 0; j < w.n; j++ {
		row := h.H[j]
		for i := 0; i < w.m; i++ {
			if row[i] > w.bestGain[i] {
				w.bestGain[i] = row[i]
			}
		}
	}
	for j := 0; j < w.n; j++ {
		c := w.clus.TXOf[j]
		if c < 0 {
			continue
		}
		leak := 0.0
		for i := 0; i < w.m; i++ {
			if w.clus.RXOf[i] == c {
				continue
			}
			g := h.H[j][i]
			if g <= 0 || w.bestGain[i] <= 0 {
				continue
			}
			if r := g / w.bestGain[i]; r > leak {
				leak = r
			}
		}
		if leak > tol {
			scale := math.Sqrt(tol / leak)
			row := w.global[j]
			for i := range row {
				row[i] = units.Amperes(row[i].A() * scale)
			}
		}
	}
}

// resetSwings returns s resized to n×m and zeroed, reusing the backing
// arrays when the dimensions match.
func resetSwings(s channel.Swings, n, m int) channel.Swings {
	if len(s) != n || (n > 0 && len(s[0]) != m) {
		return channel.NewSwings(n, m)
	}
	for j := range s {
		row := s[j]
		for i := range row {
			row[i] = 0
		}
	}
	return s
}

// resetBools returns s resized to n, reusing the backing array.
func resetBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// resetFloats returns s resized to n and zeroed, reusing the backing array.
func resetFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}
