// Command vlclint runs DenseVLC's domain-aware static-analysis suite over
// the module. Six intraprocedural rules — determinism (no global randomness
// or wall-clock reads in simulation packages), maporder (no order-sensitive
// accumulation across map iteration), floatcmp (no exact floating-point
// equality), errdrop (no silently discarded errors), apipanic (no panics in
// internal API code), and unitsafety (dimensional analysis over the
// internal/units types) — plus four interprocedural rules over the module
// call graph: hotalloc (no heap allocation in or below //lint:hotpath
// functions), ctxflow (context propagation; no context.Background/TODO in
// internal/ libraries), lockorder (acyclic lock-acquisition order, no
// re-entrant locking), and lockscope (no blocking operation while a mutex
// is held).
//
// Usage:
//
//	go run ./cmd/vlclint ./...
//	go run ./cmd/vlclint -rules unitsafety,floatcmp ./internal/...
//	go run ./cmd/vlclint -json ./... > findings.json
//	go run ./cmd/vlclint -baseline scripts/lint_baseline.json ./...
//	go run ./cmd/vlclint -baseline scripts/lint_baseline.json -update-baseline ./...
//	go run ./cmd/vlclint -timing ./...
//	go run ./cmd/vlclint -list
//
// Findings print as "file:line: [rule] message" (or a JSON array with
// -json) and the process exits 1 when any are present, so the tool gates CI
// (scripts/ci.sh). Suppress a single finding with a
// //lint:ignore <rule> <reason> comment on the offending line or the line
// above; record an audited interprocedural finding in the baseline file
// instead (-baseline filters findings through it, -update-baseline rewrites
// it, keeping audited reasons and marking new entries UNAUDITED). A
// //lint:ignore naming a rule the suite does not have suppresses nothing and
// is itself reported.
// -timing reports per-rule wall clock and surviving finding counts on
// stderr in suite order (the shared call-graph build is accounted
// separately as "callgraph"), so a slow analyzer shows up before it slows
// CI down.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"densevlc/internal/lint"
)

// jsonFinding is the stable machine-readable form of one finding.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	rules := flag.String("rules", "", "comma-separated analyzer names to run (default: all)")
	baselinePath := flag.String("baseline", "", "filter findings through a baseline JSON file of audited sites")
	updateBaseline := flag.Bool("update-baseline", false, "rewrite the -baseline file from current findings (new entries marked UNAUDITED) and exit")
	timing := flag.Bool("timing", false, "report per-rule wall clock and finding counts on stderr")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: vlclint [-list] [-json] [-timing] [-rules a,b,...] [-baseline file.json [-update-baseline]] [packages]")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *updateBaseline && *baselinePath == "" {
		fmt.Fprintln(os.Stderr, "vlclint: -update-baseline requires -baseline <file>")
		os.Exit(2)
	}

	analyzers, err := selectAnalyzers(*rules)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vlclint:", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vlclint:", err)
		os.Exit(2)
	}
	if len(pkgs) == 0 {
		fmt.Fprintf(os.Stderr, "vlclint: no packages matched %v\n", patterns)
		os.Exit(2)
	}

	var findings []lint.Finding
	if *timing {
		var timings []lint.RuleTiming
		findings, timings = lint.RunTimed(pkgs, analyzers)
		for _, tm := range timings {
			fmt.Fprintf(os.Stderr, "vlclint: %-12s %4d finding(s) %12s\n", tm.Rule, tm.Findings, tm.Elapsed.Round(time.Microsecond))
		}
	} else {
		findings = lint.Run(pkgs, analyzers)
	}

	if *updateBaseline {
		var prev *lint.Baseline
		if _, statErr := os.Stat(*baselinePath); statErr == nil {
			prev, err = lint.LoadBaseline(*baselinePath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "vlclint:", err)
				os.Exit(2)
			}
		}
		next := lint.UpdateBaseline(prev, findings)
		if err := lint.WriteBaseline(*baselinePath, next); err != nil {
			fmt.Fprintln(os.Stderr, "vlclint:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "vlclint: wrote %s (%d entries)\n", *baselinePath, len(next.Entries))
		return
	}
	if *baselinePath != "" {
		baseline, err := lint.LoadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vlclint:", err)
			os.Exit(2)
		}
		var stale []lint.BaselineEntry
		findings, stale = baseline.Apply(findings)
		for _, e := range stale {
			fmt.Fprintf(os.Stderr, "vlclint: stale baseline entry (no finding matches): %s\n", e)
		}
	}

	if *asJSON {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				File:    f.Pos.Filename,
				Line:    f.Pos.Line,
				Column:  f.Pos.Column,
				Rule:    f.Rule,
				Message: f.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "vlclint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "vlclint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// selectAnalyzers resolves the -rules flag against the registered suite.
// An empty spec selects every analyzer.
func selectAnalyzers(spec string) ([]*lint.Analyzer, error) {
	all := lint.Analyzers()
	if strings.TrimSpace(spec) == "" {
		return all, nil
	}
	byName := make(map[string]*lint.Analyzer, len(all))
	var names []string
	for _, a := range all {
		byName[a.Name] = a
		names = append(names, a.Name)
	}
	var selected []*lint.Analyzer
	seen := make(map[string]bool)
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown rule %q (known: %s)", name, strings.Join(names, ", "))
		}
		if !seen[name] {
			seen[name] = true
			selected = append(selected, a)
		}
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("-rules selected no analyzers")
	}
	return selected, nil
}
