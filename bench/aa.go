package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// Bound derivation for the A/A pass: a bound is three times the widest
// spread any workload shows, rounded up to a whole percent, at least
// minBound and at most maxBound. A metric that spreads beyond maxBound is
// not bounded wider: it is unresolved, needs a longer run or has to go, and
// keeps the bound BENCHMARK.json gives it, which may not exceed
// boundCeiling, the most a BENCHMARK.json bound may be.
const (
	minBound      = 0.02
	maxBound      = 0.10
	boundCeiling  = 0.25
	benchmarkFile = "BENCHMARK.json"
)

// benchmarkJSON mirrors BENCHMARK.json, field order included.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// quartileSummary is one metric's distribution over the A/A runs: the
// quartiles of the runs on one seed, their spread, and the spread of the
// runs on a new seed each round.
type quartileSummary struct {
	Q1          float64 `json:"q1"`
	Median      float64 `json:"median"`
	Q3          float64 `json:"q3"`
	Spread      float64 `json:"spread"`
	SeedsSpread float64 `json:"seeds_spread"`
}

// aaRun is one run of the A/A pass: a workload on the pass's own seed, the
// same input every round, or on a seed new to each round.
type aaRun struct {
	wl      workloadDef
	newSeed bool
}

// repeatMain is the A/A noise pass. Each of o.repeat rounds runs every
// selected workload twice: on -seed, so the rounds measure how far runs of
// one input drift apart, and on -seed+1+r, so they measure how far inputs
// differ, as a regression check that compares medians over seeds sees it.
// Rounds alternate between forward and reverse order. Every run on -seed
// must command the same plans. The pass prints each end-to-end metric's
// quartiles and both spreads, writes them to o.out/aa.json and, for a pass
// over all workloads, writes the derived bounds into BENCHMARK.json. It
// exits non-zero when a run fails, plans differ or a metric is unresolved.
func repeatMain(ctx context.Context, o options, stdout, stderr io.Writer) int {
	logger := log.New(stderr, "bench: ", 0)
	var report strings.Builder
	list := o.selected()
	var runs []aaRun
	for _, wl := range list {
		runs = append(runs, aaRun{wl, false}, aaRun{wl, true})
	}
	same := map[string]map[string][]float64{}
	seeds := map[string]map[string][]float64{}
	plans := map[string]string{}
	ok := true
	for r := 0; r < o.repeat; r++ {
		order := slices.Clone(runs)
		if r%2 == 1 {
			slices.Reverse(order)
		}
		for _, run := range order {
			wo := o
			wo.workload = run.wl.name
			values := same
			if run.newSeed {
				wo.seed, values = o.seed+1+int64(r), seeds
			}
			res := runChild(ctx, wo, childDeadline, stderr)
			if !res.Correct {
				ok = false
				formatResult(&report, res)
			}
			if values[wo.workload] == nil {
				values[wo.workload] = map[string][]float64{}
			}
			for name, v := range res.Metrics {
				values[wo.workload][name] = append(values[wo.workload][name], v)
			}
			if !run.newSeed && res.Correct {
				// The digest covers the plans of the epochs every run shares;
				// system_mbps covers the whole timed window.
				p := fmt.Sprintf("digest %s, system_mbps %v", res.Digest, res.Metrics["system_mbps"])
				if first, have := plans[wo.workload]; !have {
					plans[wo.workload] = p
				} else if p != first {
					ok = false
					fmt.Fprintf(&report, "PLANS DIFFER: %s seed %d round %d: %s, first run: %s\n", wo.workload, wo.seed, r+1, p, first)
				}
			}
			logger.Printf("round %d/%d: %s seed %d done", r+1, o.repeat, wo.workload, wo.seed)
		}
	}

	summaries := map[string]map[string]quartileSummary{}
	widest := map[string]float64{}
	for _, wl := range list {
		summaries[wl.name] = map[string]quartileSummary{}
		fmt.Fprintf(&report, "== %s: %d runs on seed %d, %d on seeds %d..%d\n   %-28s %12s %12s %12s %9s %13s\n",
			wl.name, o.repeat, o.seed, o.repeat, o.seed+1, o.seed+int64(o.repeat),
			"metric", "q1", "median", "q3", "same-seed", "across seeds")
		for _, d := range endToEnd {
			xs, ys := same[wl.name][d.name], seeds[wl.name][d.name]
			if len(xs) < 2 || len(ys) < 2 {
				continue
			}
			q1, q2, q3 := quartiles(xs)
			s := quartileSummary{Q1: q1, Median: q2, Q3: q3, Spread: spread(xs), SeedsSpread: spread(ys)}
			summaries[wl.name][d.name] = s
			widest[d.name] = math.Max(widest[d.name], math.Max(s.Spread, s.SeedsSpread))
			fmt.Fprintf(&report, "   %-28s %12s %12s %12s %8.2f%% %12.2f%%\n",
				d.name, formatValue(q1), formatValue(q2), formatValue(q3), 100*s.Spread, 100*s.SeedsSpread)
		}
	}

	bounds, noisy := deriveBounds(widest)
	for _, d := range endToEnd {
		if b, have := bounds[d.name]; have {
			fmt.Fprintf(&report, "bound %-28s %5.2f  (widest spread %.2f%%)\n", d.name, b, 100*widest[d.name])
		}
	}
	for _, name := range noisy {
		fmt.Fprintf(&report, "UNRESOLVED: %s spreads %.1f%% between runs, beyond the %.0f%% a derived bound may take; it keeps its bound in %s\n",
			name, 100*widest[name], 100*maxBound, benchmarkFile)
	}
	if _, err := io.WriteString(stdout, report.String()); err != nil {
		logger.Print(err)
		ok = false
	}
	aa := map[string]any{"runs": o.repeat, "seed": o.seed, "summary": summaries, "bounds": bounds, "unresolved": noisy, "values": same, "seeds_values": seeds}
	if err := writeJSON(filepath.Join(o.out, "aa.json"), aa); err != nil {
		logger.Print(err)
		ok = false
	}
	if ok && !o.smoke && len(list) == len(workloads) {
		if err := updateBounds(benchmarkFile, bounds); err != nil {
			logger.Print(err)
			ok = false
		}
	}
	// Smoke runs measure nothing, so their spreads gate nothing.
	if !ok || len(noisy) > 0 && !o.smoke {
		return 1
	}
	return 0
}

// deriveBounds turns each end-to-end metric's widest spread into its bound
// and lists the metrics too noisy for one.
func deriveBounds(widest map[string]float64) (map[string]float64, []string) {
	bounds := map[string]float64{}
	var noisy []string
	for _, d := range endToEnd {
		s, have := widest[d.name]
		if !have {
			continue
		}
		if s > maxBound {
			noisy = append(noisy, d.name)
			continue
		}
		bounds[d.name] = math.Min(maxBound, math.Max(minBound, math.Ceil(300*s)/100))
	}
	return bounds, noisy
}

// updateBounds writes derived bounds into BENCHMARK.json. Metrics without a
// derived bound keep theirs. setup_s, which a later change must not slow by
// moving work into set-up, gets the largest bound of all.
func updateBounds(path string, bounds map[string]float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	largest, setup := 0.0, -1
	for i, m := range b.EndToEnd {
		if v, have := bounds[m.Name]; have {
			b.EndToEnd[i].Bound = v
		}
		largest = math.Max(largest, b.EndToEnd[i].Bound)
		if m.Name == "setup_s" {
			setup = i
		}
	}
	if setup >= 0 {
		b.EndToEnd[setup].Bound = largest
	}
	return writeJSON(path, b)
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
