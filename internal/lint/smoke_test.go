package lint

import (
	"strings"
	"sync"
	"testing"
)

var module struct {
	once sync.Once
	pkgs []*Package
	err  error
}

// loadModule type-checks the whole module once per test binary, so the
// module-wide tests share one Load; it skips in -short mode.
func loadModule(t *testing.T) []*Package {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	module.once.Do(func() { module.pkgs, module.err = Load([]string{"./..."}) })
	if module.err != nil {
		t.Fatalf("Load: %v", module.err)
	}
	if len(module.pkgs) == 0 {
		t.Fatal("Load returned no packages")
	}
	return module.pkgs
}

// TestRepoIsClean is the self-hosting gate: vlclint must run clean over the
// entire module, so a finding introduced anywhere fails this test (and
// scripts/ci.sh) immediately.
func TestRepoIsClean(t *testing.T) {
	pkgs := loadModule(t)
	// Every deterministic package must actually be in the load set, so the
	// determinism rules cannot silently rot if a package is renamed.
	present := map[string]bool{}
	for _, pkg := range pkgs {
		if name, ok := strings.CutPrefix(pkg.Path, modulePath+"/internal/"); ok {
			present[name] = true
		}
	}
	for name := range deterministicPkgs {
		if !present[name] {
			t.Errorf("deterministic package %q not found under internal/; update deterministicPkgs in lint.go", name)
		}
	}
	// Likewise the physics packages guarded by unitsafety's API audit.
	for name := range physicsPkgs {
		if !present[name] {
			t.Errorf("physics package %q not found under internal/; update physicsPkgs in unitsafety.go", name)
		}
	}
	findings := Run(pkgs, Analyzers())
	// Audited interprocedural findings live in the checked-in baseline; the
	// gate is zero *unbaselined* findings, zero stale entries, and no
	// UNAUDITED placeholder left behind by -update-baseline.
	baseline, err := LoadBaseline("../../scripts/lint_baseline.json")
	if err != nil {
		t.Fatalf("LoadBaseline: %v", err)
	}
	for _, e := range baseline.Entries {
		if strings.HasPrefix(e.Reason, "UNAUDITED") {
			t.Errorf("baseline entry %s carries the UNAUDITED placeholder; write the audit reason", e)
		}
	}
	kept, stale := baseline.Apply(findings)
	for _, f := range kept {
		t.Errorf("unexpected finding: %s", f)
	}
	for _, e := range stale {
		t.Errorf("stale baseline entry (no finding matches): %s", e)
	}
}

// TestHotpathAlignment keeps the static and dynamic zero-alloc gates
// aligned: every function a testing.AllocsPerRun test pins to 0 allocs/op
// must carry //lint:hotpath, so the hotalloc analyzer proves statically what
// AllocsPerRun samples dynamically. The pins live in
// internal/alloc/kernel_test.go, internal/optimize/fastpath_test.go,
// internal/cluster/workspace_test.go, internal/mac/sharded_test.go and
// trigger_test.go, internal/channel/incremental_test.go,
// internal/scenario/mover_test.go, internal/rs/rs_test.go and
// internal/dsp/correlate_test.go; keep this list in sync with them.
func TestHotpathAlignment(t *testing.T) {
	pinned := []struct{ id, test string }{
		{"(*densevlc/internal/alloc.problem).Value", "alloc.TestGradientAllocationFree"},
		{"(*densevlc/internal/alloc.problem).Gradient", "alloc.TestGradientAllocationFree"},
		{"(*densevlc/internal/alloc.problem).Step", "alloc.TestGradientAllocationFree"},
		{"(*densevlc/internal/alloc.problem).LastGradient", "alloc.TestGradientAllocationFree"},
		{"(*densevlc/internal/alloc.problem).Project", "alloc.TestGradientAllocationFree"},
		{"densevlc/internal/optimize.ProjectCappedSimplex", "optimize.TestProjectionAllocationFree"},
		{"densevlc/internal/optimize.ProjectCappedSimplexScratch", "optimize.TestProjectionAllocationFree"},
		{"(*densevlc/internal/cluster.Workspace).refresh", "cluster.TestWorkspaceSteadyStateIsAllocationFree"},
		{"densevlc/internal/cluster.sliceInto", "cluster.TestWorkspaceSteadyStateIsAllocationFree"},
		{"densevlc/internal/cluster.stitchInto", "cluster.TestWorkspaceSteadyStateIsAllocationFree"},
		{"(*densevlc/internal/mac.Controller).fillEnv", "mac.TestRefreshEnvIsAllocationFree"},
		{"(*densevlc/internal/mac.Controller).refreshRXDirty", "mac.TestTriggerSkipIsAllocationFree"},
		{"(*densevlc/internal/channel.Matrix).UpdateColumns", "channel.TestUpdateColumnIsAllocationFree"},
		{"(*densevlc/internal/channel.Matrix).ColumnInto", "channel.TestUpdateColumnIsAllocationFree"},
		{"(*densevlc/internal/scenario.Mover).MoveRX", "scenario.TestMoveRXIsAllocationFree"},
		{"(*densevlc/internal/scenario.Mover).settle", "scenario.TestMoveRXIsAllocationFree"},
		{"(*densevlc/internal/scenario.Medium).Move", "scenario.TestMoveRXIsAllocationFree"},
		{"densevlc/internal/rs.remainder", "rs.TestRemainderAndEncodeIntoDoNotAllocate"},
		{"densevlc/internal/rs.EncodeInto", "rs.TestRemainderAndEncodeIntoDoNotAllocate"},
		{"densevlc/internal/dsp.CorrelationPeak", "dsp.TestCorrelationPeakDoesNotAllocate"},
	}
	nodes := NewModule(loadModule(t)).Graph.Nodes
	for _, p := range pinned {
		switch n := nodes[p.id]; {
		case n == nil:
			t.Errorf("%s: no such function in the call graph (renamed?); %s pins it to 0 allocs/op", p.id, p.test)
		case !n.Hot:
			t.Errorf("%s: not //lint:hotpath, yet %s pins it to 0 allocs/op", p.id, p.test)
		}
	}
}

// TestLoadPatternFiltering checks that package patterns select the right
// subset while dependencies still type-check.
func TestLoadPatternFiltering(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	pkgs, err := Load([]string{"./internal/lint"})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != modulePath+"/internal/lint" {
		var paths []string
		for _, p := range pkgs {
			paths = append(paths, p.Path)
		}
		t.Fatalf("Load(./internal/lint) = %v, want exactly [%s/internal/lint]", paths, modulePath)
	}
	sub, err := Load([]string{"./cmd/..."})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, p := range sub {
		if !strings.HasPrefix(p.Path, modulePath+"/cmd/") {
			t.Errorf("pattern ./cmd/... selected %s", p.Path)
		}
	}
	if len(sub) == 0 {
		t.Error("pattern ./cmd/... selected no packages")
	}
}

// TestSuiteIncludesUnitSafety pins the dimensional-analysis pass into the
// default suite: TestRepoIsClean only gates what Analyzers() returns.
func TestSuiteIncludesUnitSafety(t *testing.T) {
	for _, a := range Analyzers() {
		if a.Name == "unitsafety" {
			return
		}
	}
	t.Fatal("unitsafety missing from Analyzers()")
}
