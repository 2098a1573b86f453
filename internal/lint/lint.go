// Package lint implements vlclint, DenseVLC's domain-aware static-analysis
// suite. It enforces the invariants the reproduction depends on — bit-for-bit
// deterministic simulation, numeric safety in the Eq. (1)–(10) hot paths, and
// error hygiene in the serving stack — using only the standard library
// (go/parser, go/ast, go/types), so the repo stays offline-buildable with a
// dependency-free go.mod.
//
// Ten analyzers make up the suite. Six intraprocedural rules run over
// every package:
//
//   - determinism: forbids global math/rand functions and wall-clock calls
//     (time.Now, time.Since, ...) inside the simulation packages; stochastic
//     code must take an injected *rand.Rand and timing must go through
//     stats.Stopwatch.
//   - maporder: flags `range` over a map that appends to an outer slice
//     (without a subsequent sort) or accumulates floats, both of which make
//     results depend on Go's randomized map iteration order.
//   - floatcmp: flags == and != where both operands are floating-point
//     (or complex), outside test files.
//   - errdrop: flags statements that call a function returning an error and
//     silently discard it.
//   - apipanic: flags panic(...) in internal/ library code; recoverable
//     failures must be returned as errors, and genuine programmer-invariant
//     checks must carry a //lint:ignore apipanic <reason> directive.
//   - unitsafety: dimensional analysis over the internal/units types —
//     flags cross-unit conversions (units.Radians of a units.Degrees
//     value), unit values laundered through bare float64(...) casts,
//     multiplication/division of two unit-typed values, and exported
//     physics-package APIs that pass physical quantities as bare float64.
//
// Four interprocedural rules run over the module-wide call graph
// (callgraph.go), built from go/types object identity with closure tracking
// and class-hierarchy analysis for interface dispatch:
//
//   - hotalloc: functions annotated //lint:hotpath — and everything
//     reachable from them, up to //lint:hotpath-boundary audits — must not
//     contain heap-allocating constructs; the static proof of the 0
//     allocs/op contract the AllocsPerRun benchmarks sample dynamically.
//   - ctxflow: functions that accept a context.Context must propagate it to
//     context-accepting callees, and context.Background/TODO are forbidden
//     inside internal/ libraries.
//   - lockorder: the module's lock-acquisition graph (lock B taken while
//     lock A is held, directly or through a call chain) must be acyclic,
//     and no lock may be re-acquired while held — the static deadlock
//     check.
//   - lockscope: no blocking operation (unguarded channel op, select
//     without default, wg.Wait, time.Sleep, network I/O, or a call
//     reaching one) while a mutex is held.
//
// Data races, shared random streams and leaked goroutines have no static
// rule: `go test -race`, TestParallelDeterminism and the internal/testutil
// goroutine-leak checker enforce them at run time (DESIGN.md "Concurrency
// discipline").
//
// Any finding can be suppressed with a comment on the same line or the line
// directly above:
//
//	//lint:ignore <rule> <reason>
//
// The reason is mandatory and the rule must be one of the suite's; a
// directive without a reason, or naming no rule of the suite, is itself
// reported.
// Audited interprocedural findings that question an API's design rather
// than a line of code (context-free public entry points, documented cold
// fallbacks) live in the checked-in baseline scripts/lint_baseline.json
// instead (baseline.go); cmd/vlclint -baseline filters findings through it
// and reports entries that no longer match anything as stale.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// modulePath is the import path of the module vlclint guards. The
// domain-aware package classification (deterministic simulation packages,
// internal/ API surface) is keyed off it.
const modulePath = "densevlc"

// Finding is a single rule violation at a source position.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the canonical "file:line: [rule] message" form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Message)
}

// Package bundles everything an analyzer needs about one type-checked
// package.
type Package struct {
	Path  string // import path, e.g. densevlc/internal/phy
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Analyzer is one named rule. Intraprocedural rules set Run and see one
// package at a time; interprocedural rules set RunModule and see every
// loaded package plus the shared call graph. Exactly one of the two is set.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(*Package) []Finding
	RunModule func(*Module) []Finding
}

// Analyzers returns the full vlclint suite in reporting order: the six
// intraprocedural rules, then the four call-graph rules.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		analyzerDeterminism,
		analyzerMapOrder,
		analyzerFloatCmp,
		analyzerErrDrop,
		analyzerAPIPanic,
		analyzerUnitSafety,
		analyzerHotAlloc,
		analyzerCtxFlow,
		analyzerLockOrder,
		analyzerLockScope,
	}
}

// Run applies the analyzers to every package — building the call graph once
// when any interprocedural analyzer is selected — drops findings covered by
// //lint:ignore directives, reports malformed directives, and returns the
// remainder sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	findings, _ := run(pkgs, analyzers, false)
	return findings
}

// RuleTiming is one analyzer's wall-clock cost and surviving finding count,
// reported by cmd/vlclint -timing. The pseudo-rule "callgraph" accounts for
// building the shared module call graph.
type RuleTiming struct {
	Rule     string
	Findings int
	Elapsed  time.Duration
}

// RunTimed is Run plus per-rule timings, in suite order with the callgraph
// entry (when built) first.
func RunTimed(pkgs []*Package, analyzers []*Analyzer) ([]Finding, []RuleTiming) {
	return run(pkgs, analyzers, true)
}

func run(pkgs []*Package, analyzers []*Analyzer, timed bool) ([]Finding, []RuleTiming) {
	var all []Finding
	sup := suppressions{rules: make(map[string]map[int][]string), known: make(map[string]bool)}
	for _, a := range Analyzers() {
		sup.known[a.Name] = true
	}
	for _, pkg := range pkgs {
		collectSuppressions(pkg, &sup)
	}
	all = append(all, sup.malformed...)
	var timings []RuleTiming
	var mod *Module
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		start := time.Now()
		mod = NewModule(pkgs)
		all = append(all, mod.Graph.malformed...)
		if timed {
			timings = append(timings, RuleTiming{Rule: "callgraph", Elapsed: time.Since(start)})
		}
		break
	}
	for _, a := range analyzers {
		start := time.Now()
		switch {
		case a.Run != nil:
			for _, pkg := range pkgs {
				all = append(all, a.Run(pkg)...)
			}
		case a.RunModule != nil:
			all = append(all, a.RunModule(mod)...)
		}
		if timed {
			timings = append(timings, RuleTiming{Rule: a.Name, Elapsed: time.Since(start)})
		}
	}
	kept := all[:0]
	for _, f := range all {
		if !sup.covers(f) {
			kept = append(kept, f)
		}
	}
	all = kept
	if timed {
		counts := make(map[string]int)
		for _, f := range all {
			counts[f.Rule]++
		}
		for i := range timings {
			timings[i].Findings = counts[timings[i].Rule]
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return all, timings
}

// ignorePrefix introduces a suppression directive comment.
const ignorePrefix = "lint:ignore"

// suppressions indexes //lint:ignore directives by file and line.
type suppressions struct {
	// rules maps filename -> line -> suppressed rule names on that line.
	rules map[string]map[int][]string
	// known names every rule of the full suite, whatever subset runs, so a
	// directive for a misspelled or deleted rule is reported, not kept.
	known     map[string]bool
	malformed []Finding
}

// covers reports whether a directive on the finding's line or the line
// directly above names the finding's rule.
func (s suppressions) covers(f Finding) bool {
	lines := s.rules[f.Pos.Filename]
	for _, line := range []int{f.Pos.Line, f.Pos.Line - 1} {
		for _, rule := range lines[line] {
			if rule == f.Rule {
				return true
			}
		}
	}
	return false
}

func collectSuppressions(pkg *Package, s *suppressions) {
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(text, ignorePrefix))
				if len(fields) < 2 {
					s.malformed = append(s.malformed, Finding{
						Pos:     pos,
						Rule:    "ignore",
						Message: "malformed //lint:ignore directive: want //lint:ignore <rule> <reason>",
					})
					continue
				}
				if !s.known[fields[0]] {
					s.malformed = append(s.malformed, Finding{
						Pos:     pos,
						Rule:    "ignore",
						Message: fmt.Sprintf("//lint:ignore names unknown rule %q and suppresses nothing", fields[0]),
					})
					continue
				}
				if s.rules[pos.Filename] == nil {
					s.rules[pos.Filename] = make(map[int][]string)
				}
				s.rules[pos.Filename][pos.Line] = append(s.rules[pos.Filename][pos.Line], fields[0])
			}
		}
	}
}

// isTestFile reports whether the position is inside a _test.go file.
func isTestFile(pos token.Position) bool {
	return strings.HasSuffix(pos.Filename, "_test.go")
}

// isInternalPkg reports whether the package is part of the module's
// internal/ API surface.
func isInternalPkg(path string) bool {
	return strings.HasPrefix(path, modulePath+"/internal/")
}

// deterministicPkgs names the internal packages whose output must be a pure
// function of their inputs (configuration + injected *rand.Rand seeds).
// These implement the paper's channel/PHY/allocation models and the
// experiment harness whose tables EXPERIMENTS.md quotes bit-for-bit.
var deterministicPkgs = map[string]bool{
	"sim":         true,
	"channel":     true,
	"phy":         true,
	"alloc":       true,
	"ofdm":        true,
	"scenario":    true,
	"mobility":    true,
	"experiments": true,
	"precode":     true,
	"optics":      true,
	"illum":       true,
	"geom":        true,
	"dsp":         true,
	"linalg":      true,
	"rs":          true,
	"frame":       true,
	"led":         true,
	"optimize":    true,
	"mac":         true,
	"clock":       true,
}

// isDeterministicPkg reports whether pkgPath is one of the simulation
// packages that must stay reproducible.
func isDeterministicPkg(pkgPath string) bool {
	name, ok := strings.CutPrefix(pkgPath, modulePath+"/internal/")
	if !ok {
		return false
	}
	return deterministicPkgs[name]
}

// calleeFunc resolves the *types.Func a call expression invokes, or nil for
// calls through function-typed values, conversions, and builtins.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[fun.Sel]
	case *ast.Ident:
		obj = pkg.Info.Uses[fun]
	default:
		return nil
	}
	fn, _ := obj.(*types.Func)
	return fn
}
