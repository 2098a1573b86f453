package lint

import (
	"go/ast"
	"go/parser"
	"go/types"
	"strings"
	"testing"
)

// The interprocedural analyzers need whole-module context: fixtures are
// small multi-package modules, each package a single source file.

// fixtureSrc is one single-file package of a fixture module, listed in
// dependency order (imported packages first).
type fixtureSrc struct {
	path string // full import path, e.g. densevlc/internal/kernels
	file string
	src  string
}

// moduleImporterFixture resolves module-local fixture imports from the
// already-checked set and everything else through the shared source
// importer.
type moduleImporterFixture struct {
	local map[string]*types.Package
}

func (m *moduleImporterFixture) Import(path string) (*types.Package, error) {
	if p, ok := m.local[path]; ok {
		return p, nil
	}
	return fixtureImp.Import(path)
}

// fixtureModule type-checks the packages in order and assembles a Module.
func fixtureModule(t *testing.T, files []fixtureSrc) *Module {
	t.Helper()
	fixtureOnce.Do(initFixtureImporter)
	imp := &moduleImporterFixture{local: map[string]*types.Package{}}
	var pkgs []*Package
	for _, f := range files {
		file, err := parser.ParseFile(fixtureFset, f.file, f.src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse fixture %s: %v", f.file, err)
		}
		info := newInfo()
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(f.path, fixtureFset, []*ast.File{file}, info)
		if err != nil {
			t.Fatalf("type-check fixture %s: %v", f.file, err)
		}
		imp.local[f.path] = tpkg
		pkgs = append(pkgs, &Package{Path: f.path, Fset: fixtureFset, Files: []*ast.File{file}, Types: tpkg, Info: info})
	}
	return NewModule(pkgs)
}

// runFixture runs the full pipeline (suppressions included) over a fixture
// module with the named analyzers.
func runFixture(t *testing.T, files []fixtureSrc, rules ...string) []Finding {
	t.Helper()
	mod := fixtureModule(t, files)
	want := map[string]bool{}
	for _, r := range rules {
		want[r] = true
	}
	var selected []*Analyzer
	for _, a := range Analyzers() {
		if want[a.Name] {
			selected = append(selected, a)
		}
	}
	if len(selected) != len(rules) {
		t.Fatalf("unknown rule in %v", rules)
	}
	return Run(mod.Pkgs, selected)
}

// --- call graph -----------------------------------------------------------

func TestCallGraphEdgesAndClosures(t *testing.T) {
	mod := fixtureModule(t, []fixtureSrc{{
		path: "densevlc/internal/cg",
		file: "cg1.go",
		src: `package cg

func a() { b() }

func b() {}

func c() func() int {
	x := 0
	return func() int { x++; return x }
}
`,
	}})
	g := mod.Graph
	var ids []string
	for _, n := range g.SortedNodes() {
		ids = append(ids, n.ID)
	}
	joined := strings.Join(ids, "\n")
	for _, want := range []string{
		"densevlc/internal/cg.a",
		"densevlc/internal/cg.b",
		"densevlc/internal/cg.c",
		"densevlc/internal/cg.c$1",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("call graph missing node %s (have:\n%s)", want, joined)
		}
	}
	var a *FuncNode
	for _, n := range g.SortedNodes() {
		if n.ID == "densevlc/internal/cg.a" {
			a = n
		}
	}
	if a == nil || len(a.Callees) != 1 || a.Callees[0].ID != "densevlc/internal/cg.b" {
		t.Fatalf("a's callees wrong: %+v", a)
	}
}

func TestCallGraphInterfaceDispatchCHA(t *testing.T) {
	// A hot root calling through an interface must reach every module-local
	// implementation — here, one that allocates.
	findings := runFixture(t, []fixtureSrc{{
		path: "densevlc/internal/cha",
		file: "cha1.go",
		src: `package cha

type Proj interface{ Project(x []float64) }

type clean struct{}

func (clean) Project(x []float64) {}

type dirty struct{}

func (dirty) Project(x []float64) { _ = make([]float64, len(x)) }

//lint:hotpath
func Solve(p Proj, x []float64) { p.Project(x) }
`,
	}}, "hotalloc")
	assertFindings(t, findings, "cha1.go:11 hotalloc")
	if !strings.Contains(findings[0].Message, "reachable from //lint:hotpath root cha.Solve") {
		t.Errorf("finding should name the hot root: %s", findings[0].Message)
	}
}

func TestCallGraphBoundaryStopsTraversal(t *testing.T) {
	findings := runFixture(t, []fixtureSrc{{
		path: "densevlc/internal/cgb",
		file: "cgb1.go",
		src: `package cgb

//lint:hotpath
func Kernel(x []float64) { coldSetup(len(x)) }

//lint:hotpath-boundary one-time setup outside the per-epoch loop
func coldSetup(n int) { _ = make([]float64, n) }
`,
	}}, "hotalloc")
	assertFindings(t, findings)
}

func TestCallGraphMalformedBoundaryDirective(t *testing.T) {
	findings := runFixture(t, []fixtureSrc{{
		path: "densevlc/internal/cgm",
		file: "cgm1.go",
		src: `package cgm

//lint:hotpath-boundary
func setup(n int) { _ = make([]float64, n) }
`,
	}}, "hotalloc")
	assertFindings(t, findings, "cgm1.go:4 ignore")
}

// --- hotalloc -------------------------------------------------------------

func TestHotAlloc(t *testing.T) {
	tests := []struct {
		name  string
		files []fixtureSrc
		want  []string
	}{
		{
			// The ISSUE acceptance case: add a make to an annotated kernel.
			name: "make in annotated kernel flagged",
			files: []fixtureSrc{{
				path: "densevlc/internal/hk",
				file: "hk1.go",
				src: `package hk

//lint:hotpath
func Value(x []float64) float64 {
	buf := make([]float64, len(x))
	_ = buf
	return 0
}
`,
			}},
			want: []string{"hk1.go:5 hotalloc"},
		},
		{
			name: "allocation in transitive callee flagged with provenance",
			files: []fixtureSrc{{
				path: "densevlc/internal/hk",
				file: "hk2.go",
				src: `package hk

//lint:hotpath
func Grad(x []float64) { helper2(x) }

func helper2(x []float64) { inner2(x) }

func inner2(x []float64) { _ = append(x, 1) }
`,
			}},
			want: []string{"hk2.go:8 hotalloc"},
		},
		{
			name: "clean kernel passes",
			files: []fixtureSrc{{
				path: "densevlc/internal/hk",
				file: "hk3.go",
				src: `package hk

//lint:hotpath
func Dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// unannotated code may allocate freely
func Cold() []float64 { return make([]float64, 8) }
`,
			}},
			want: nil,
		},
		{
			name: "suppressed allocation passes",
			files: []fixtureSrc{{
				path: "densevlc/internal/hk",
				file: "hk4.go",
				src: `package hk

//lint:hotpath
func Proj(x []float64) {
	if len(x) > 16 {
		//lint:ignore hotalloc documented cold fallback beyond the stack buffer
		_ = make([]float64, len(x))
	}
}
`,
			}},
			want: nil,
		},
		{
			name: "cross-package reachability",
			files: []fixtureSrc{
				{
					path: "densevlc/internal/hklib",
					file: "hklib.go",
					src: `package hklib

func Concat(a, b string) string { return a + b }
`,
				},
				{
					path: "densevlc/internal/hk",
					file: "hk5.go",
					src: `package hk

import "densevlc/internal/hklib"

//lint:hotpath
func Hot() string { return hklib.Concat("a", "b") }
`,
				},
			},
			want: []string{"hklib.go:3 hotalloc"},
		},
		{
			name: "interface boxing and fmt call flagged",
			files: []fixtureSrc{{
				path: "densevlc/internal/hk",
				file: "hk6.go",
				src: `package hk

import "fmt"

//lint:hotpath
func Hot(v float64) string {
	x := interface{}(v)
	_ = x
	return fmt.Sprintf("%v", v)
}
`,
			}},
			want: []string{"hk6.go:7 hotalloc", "hk6.go:9 hotalloc"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			assertFindings(t, runFixture(t, tt.files, "hotalloc"), tt.want...)
		})
	}
}

// --- ctxflow --------------------------------------------------------------

func TestCtxFlow(t *testing.T) {
	tests := []struct {
		name  string
		files []fixtureSrc
		want  []string
	}{
		{
			name: "background root in internal library flagged",
			files: []fixtureSrc{{
				path: "densevlc/internal/cf",
				file: "cf1.go",
				src: `package cf

import "context"

func Detached() error {
	ctx := context.Background()
	<-ctx.Done()
	return nil
}
`,
			}},
			want: []string{"cf1.go:6 ctxflow"},
		},
		{
			name: "fresh root despite ctx in scope flagged",
			files: []fixtureSrc{{
				path: "densevlc/internal/cf",
				file: "cf2.go",
				src: `package cf

import "context"

func callee(ctx context.Context) {}

func Caller(ctx context.Context) {
	callee(context.TODO())
}
`,
			}},
			want: []string{"cf2.go:8 ctxflow"},
		},
		{
			name: "non-derived context argument flagged",
			files: []fixtureSrc{{
				path: "densevlc/internal/cf",
				file: "cf3.go",
				src: `package cf

import "context"

var stashed context.Context

func callee3(ctx context.Context) {}

func Caller3(ctx context.Context) {
	callee3(stashed)
}
`,
			}},
			want: []string{"cf3.go:10 ctxflow"},
		},
		{
			name: "propagation and derivation pass",
			files: []fixtureSrc{{
				path: "densevlc/internal/cf",
				file: "cf4.go",
				src: `package cf

import (
	"context"
	"time"
)

func callee4(ctx context.Context) {}

func Caller4(ctx context.Context) {
	callee4(ctx)
	timed, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	callee4(timed)
}
`,
			}},
			want: nil,
		},
		{
			name: "cross-package propagation passes",
			files: []fixtureSrc{
				{
					path: "densevlc/internal/cflib",
					file: "cflib.go",
					src: `package cflib

import "context"

func Do(ctx context.Context) error { return ctx.Err() }
`,
				},
				{
					path: "densevlc/internal/cf",
					file: "cf5.go",
					src: `package cf

import (
	"context"

	"densevlc/internal/cflib"
)

func Caller5(ctx context.Context) error { return cflib.Do(ctx) }
`,
				},
			},
			want: nil,
		},
		{
			name: "suppressed convenience wrapper passes",
			files: []fixtureSrc{{
				path: "densevlc/internal/cf",
				file: "cf6.go",
				src: `package cf

import "context"

func inner6(ctx context.Context) {}

func Convenience() {
	//lint:ignore ctxflow context-free public wrapper; InnerContext accepts the caller's context
	inner6(context.Background())
}
`,
			}},
			want: nil,
		},
		{
			name: "roots outside internal/ pass",
			files: []fixtureSrc{{
				path: "densevlc/cmd/tool",
				file: "cf7.go",
				src: `package main

import "context"

func run() context.Context { return context.Background() }
`,
			}},
			want: nil,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			assertFindings(t, runFixture(t, tt.files, "ctxflow"), tt.want...)
		})
	}
}
