package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"sync"
	"testing"
)

// The fixture harness type-checks a single-file package from a source
// string and runs selected analyzers over it. A shared FileSet and source
// importer keep the standard library from being re-checked per test.
var (
	fixtureOnce sync.Once
	fixtureFset *token.FileSet
	fixtureImp  types.Importer
)

func initFixtureImporter() {
	fixtureFset = token.NewFileSet()
	fixtureImp = importer.ForCompiler(fixtureFset, "source", nil)
}

func fixturePkg(t *testing.T, pkgPath, filename, src string) *Package {
	t.Helper()
	fixtureOnce.Do(initFixtureImporter)
	file, err := parser.ParseFile(fixtureFset, filename, src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	info := newInfo()
	conf := types.Config{Importer: fixtureImp}
	tpkg, err := conf.Check(pkgPath, fixtureFset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("type-check fixture: %v", err)
	}
	return &Package{Path: pkgPath, Fset: fixtureFset, Files: []*ast.File{file}, Types: tpkg, Info: info}
}

// keys renders findings as "file:line rule" for compact comparison.
func keys(findings []Finding) []string {
	var out []string
	for _, f := range findings {
		out = append(out, fmt.Sprintf("%s:%d %s", f.Pos.Filename, f.Pos.Line, f.Rule))
	}
	return out
}

func assertFindings(t *testing.T, got []Finding, want ...string) {
	t.Helper()
	gotKeys := keys(got)
	if len(gotKeys) != len(want) {
		t.Fatalf("findings = %v, want %v", gotKeys, want)
	}
	for i := range want {
		if gotKeys[i] != want[i] {
			t.Fatalf("finding[%d] = %q, want %q (all: %v)", i, gotKeys[i], want[i], gotKeys)
		}
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{
		Pos:     token.Position{Filename: "internal/phy/phy.go", Line: 42, Column: 7},
		Rule:    "determinism",
		Message: "call to time.Now",
	}
	want := "internal/phy/phy.go:42: [determinism] call to time.Now"
	if f.String() != want {
		t.Fatalf("String() = %q, want %q", f.String(), want)
	}
}

func TestDeterminism(t *testing.T) {
	tests := []struct {
		name    string
		pkgPath string
		file    string
		src     string
		want    []string
	}{
		{
			name:    "global rand and wall clock flagged",
			pkgPath: "densevlc/internal/phy",
			file:    "det1.go",
			src: `package phy

import (
	"math/rand"
	"time"
)

func bad() float64 {
	x := rand.Float64()
	_ = time.Now()
	return x
}
`,
			want: []string{"det1.go:9 determinism", "det1.go:10 determinism"},
		},
		{
			name:    "injected rng and constructors legal",
			pkgPath: "densevlc/internal/phy",
			file:    "det2.go",
			src: `package phy

import "math/rand"

func good(rng *rand.Rand) float64 {
	local := rand.New(rand.NewSource(1))
	return rng.Float64() + local.Float64()
}
`,
			want: nil,
		},
		{
			name:    "non-deterministic package untouched",
			pkgPath: "densevlc/internal/transport",
			file:    "det3.go",
			src: `package transport

import (
	"math/rand"
	"time"
)

func allowedHere() float64 {
	_ = time.Now()
	return rand.Float64()
}
`,
			want: nil,
		},
		{
			name:    "time.Since and time.Sleep flagged",
			pkgPath: "densevlc/internal/sim",
			file:    "det4.go",
			src: `package sim

import "time"

func bad(t0 time.Time) float64 {
	time.Sleep(time.Millisecond)
	return time.Since(t0).Seconds()
}
`,
			want: []string{"det4.go:6 determinism", "det4.go:7 determinism"},
		},
		{
			name:    "suppression on the line above",
			pkgPath: "densevlc/internal/alloc",
			file:    "det5.go",
			src: `package alloc

import "time"

func tolerated() time.Time {
	//lint:ignore determinism benchmark harness, result is not part of simulation state
	return time.Now()
}
`,
			want: nil,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			pkg := fixturePkg(t, tc.pkgPath, tc.file, tc.src)
			assertFindings(t, Run([]*Package{pkg}, []*Analyzer{analyzerDeterminism}), tc.want...)
		})
	}
}

func TestMapOrder(t *testing.T) {
	tests := []struct {
		name string
		file string
		src  string
		want []string
	}{
		{
			name: "append across map range flagged",
			file: "map1.go",
			src: `package alloc

func bad(m map[int]string) []string {
	var out []string
	for _, v := range m {
		out = append(out, v)
	}
	return out
}
`,
			want: []string{"map1.go:6 maporder"},
		},
		{
			name: "collect then sort is legal",
			file: "map2.go",
			src: `package alloc

import "sort"

func good(m map[string]int) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
`,
			want: nil,
		},
		{
			name: "float accumulation flagged even with later sort",
			file: "map3.go",
			src: `package channel

func bad(m map[int]float64) float64 {
	total := 0.0
	for _, v := range m {
		total += v
	}
	return total
}
`,
			want: []string{"map3.go:6 maporder"},
		},
		{
			name: "integer accumulation legal",
			file: "map4.go",
			src: `package channel

func good(m map[int]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}
`,
			want: nil,
		},
		{
			name: "append to loop-local slice legal",
			file: "map5.go",
			src: `package channel

func good(m map[int][]int) int {
	n := 0
	for _, vs := range m {
		var local []int
		local = append(local, vs...)
		n += len(local)
	}
	return n
}
`,
			want: nil,
		},
		{
			name: "range over slice untouched",
			file: "map6.go",
			src: `package channel

func good(vs []float64) float64 {
	total := 0.0
	for _, v := range vs {
		total += v
	}
	return total
}
`,
			want: nil,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			pkg := fixturePkg(t, "densevlc/internal/"+strings.TrimSuffix(firstWordAfterPackage(tc.src), "\n"), tc.file, tc.src)
			assertFindings(t, Run([]*Package{pkg}, []*Analyzer{analyzerMapOrder}), tc.want...)
		})
	}
}

// firstWordAfterPackage extracts the package clause name so fixtures can
// place themselves in a deterministic package by name alone.
func firstWordAfterPackage(src string) string {
	rest := strings.TrimPrefix(src, "package ")
	if i := strings.IndexAny(rest, " \n"); i >= 0 {
		return rest[:i]
	}
	return rest
}

func TestFloatCmp(t *testing.T) {
	tests := []struct {
		name string
		file string
		src  string
		want []string
	}{
		{
			name: "computed equality flagged",
			file: "cmp1.go",
			src: `package ofdm

func bad(a, b float64) bool {
	return a == b || a*2 != b
}
`,
			want: []string{"cmp1.go:4 floatcmp", "cmp1.go:4 floatcmp"},
		},
		{
			name: "zero sentinel and NaN self-test legal",
			file: "cmp2.go",
			src: `package ofdm

const unset = 0.0

func good(a float64) bool {
	if a == 0 || a == unset || a != a {
		return true
	}
	return false
}
`,
			want: nil,
		},
		{
			name: "non-representable literal flagged",
			file: "cmp3.go",
			src: `package ofdm

func bad(a float64) bool {
	return a == 0.1
}
`,
			want: []string{"cmp3.go:4 floatcmp"},
		},
		{
			name: "integer comparison untouched",
			file: "cmp4.go",
			src: `package ofdm

func good(a, b int) bool {
	return a == b
}
`,
			want: nil,
		},
		{
			name: "test files exempt",
			file: "cmp5_test.go",
			src: `package ofdm

func inTest(a, b float64) bool {
	return a == b
}
`,
			want: nil,
		},
		{
			name: "suppression on the same line",
			file: "cmp6.go",
			src: `package ofdm

func tolerated(a, b float64) bool {
	return a == b //lint:ignore floatcmp comparing interned table entries, bitwise equality intended
}
`,
			want: nil,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			pkg := fixturePkg(t, "densevlc/internal/ofdm", tc.file, tc.src)
			assertFindings(t, Run([]*Package{pkg}, []*Analyzer{analyzerFloatCmp}), tc.want...)
		})
	}
}

func TestErrDrop(t *testing.T) {
	tests := []struct {
		name string
		file string
		src  string
		want []string
	}{
		{
			name: "bare, deferred, and go calls flagged",
			file: "err1.go",
			src: `package transport

func fallible() error { return nil }

func bad() {
	fallible()
	defer fallible()
	go fallible()
}
`,
			want: []string{"err1.go:6 errdrop", "err1.go:7 errdrop", "err1.go:8 errdrop"},
		},
		{
			name: "explicit discard and handling legal",
			file: "err2.go",
			src: `package transport

func fallible() error { return nil }

func good() error {
	_ = fallible()
	if err := fallible(); err != nil {
		return err
	}
	return fallible()
}
`,
			want: nil,
		},
		{
			name: "multi-result error flagged",
			file: "err3.go",
			src: `package transport

func pair() (int, error) { return 0, nil }

func bad() {
	pair()
}
`,
			want: []string{"err3.go:6 errdrop"},
		},
		{
			name: "stdout, stderr, and buffer sinks exempt",
			file: "err4.go",
			src: `package transport

import (
	"bytes"
	"fmt"
	"os"
	"strings"
)

func good() string {
	var b strings.Builder
	var buf bytes.Buffer
	fmt.Println("hello")
	fmt.Fprintf(os.Stderr, "diag\n")
	fmt.Fprintf(&b, "x=%d", 1)
	fmt.Fprintln(&buf, "y")
	b.WriteString("tail")
	return b.String() + buf.String()
}
`,
			want: nil,
		},
		{
			name: "generic writer sink flagged",
			file: "err5.go",
			src: `package transport

import (
	"fmt"
	"io"
)

func bad(w io.Writer) {
	fmt.Fprintf(w, "x=%d", 1)
}
`,
			want: []string{"err5.go:9 errdrop"},
		},
		{
			name: "error-free call untouched",
			file: "err6.go",
			src: `package transport

func pure() int { return 1 }

func good() {
	pure()
}
`,
			want: nil,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			pkg := fixturePkg(t, "densevlc/internal/transport", tc.file, tc.src)
			assertFindings(t, Run([]*Package{pkg}, []*Analyzer{analyzerErrDrop}), tc.want...)
		})
	}
}

func TestAPIPanic(t *testing.T) {
	tests := []struct {
		name    string
		pkgPath string
		file    string
		src     string
		want    []string
	}{
		{
			name:    "panic in internal flagged",
			pkgPath: "densevlc/internal/frame",
			file:    "panic1.go",
			src: `package frame

func bad(n int) {
	if n < 0 {
		panic("negative")
	}
}
`,
			want: []string{"panic1.go:5 apipanic"},
		},
		{
			name:    "documented invariant legal",
			pkgPath: "densevlc/internal/frame",
			file:    "panic2.go",
			src: `package frame

func invariant(n int) {
	if n < 0 {
		//lint:ignore apipanic bounds invariant, same contract as slice indexing
		panic("negative")
	}
}
`,
			want: nil,
		},
		{
			name:    "cmd packages exempt",
			pkgPath: "densevlc/cmd/tool",
			file:    "panic3.go",
			src: `package main

func run(n int) {
	if n < 0 {
		panic("negative")
	}
}
`,
			want: nil,
		},
		{
			name:    "directive without reason is malformed and does not suppress",
			pkgPath: "densevlc/internal/frame",
			file:    "panic4.go",
			src: `package frame

func bad(n int) {
	if n < 0 {
		//lint:ignore apipanic
		panic("negative")
	}
}
`,
			want: []string{"panic4.go:5 ignore", "panic4.go:6 apipanic"},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			pkg := fixturePkg(t, tc.pkgPath, tc.file, tc.src)
			assertFindings(t, Run([]*Package{pkg}, []*Analyzer{analyzerAPIPanic}), tc.want...)
		})
	}
}

// TestSuppressionIsRuleScoped checks that an ignore directive for one rule
// does not silence another rule on the same line.
func TestSuppressionIsRuleScoped(t *testing.T) {
	src := `package alloc

import "time"

func wrong() time.Time {
	//lint:ignore floatcmp wrong rule name
	return time.Now()
}
`
	pkg := fixturePkg(t, "densevlc/internal/alloc", "scope1.go", src)
	got := Run([]*Package{pkg}, []*Analyzer{analyzerDeterminism})
	assertFindings(t, got, "scope1.go:7 determinism")
}

// TestSuppressionOfUnknownRuleIsReported checks that a directive naming a
// rule the suite does not have is reported and suppresses nothing, while a
// directive for a registered rule that is not selected stays silent.
func TestSuppressionOfUnknownRuleIsReported(t *testing.T) {
	src := `package alloc

import "time"

func misspelled(a, b float64) bool {
	//lint:ignore floatcomp exact tie-break
	return a == b
}

func unselected() time.Time {
	//lint:ignore determinism wall clock is the point here
	return time.Now()
}
`
	pkg := fixturePkg(t, "densevlc/internal/alloc", "unknown1.go", src)
	got := Run([]*Package{pkg}, []*Analyzer{analyzerFloatCmp})
	assertFindings(t, got, "unknown1.go:6 ignore", "unknown1.go:7 floatcmp")
	if !strings.Contains(got[0].Message, `"floatcomp"`) {
		t.Errorf("message should name the unknown rule: %s", got[0].Message)
	}
}
