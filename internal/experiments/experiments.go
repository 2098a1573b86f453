// Package experiments regenerates every table and figure of the paper's
// evaluation. Each generator returns a Table — an id, headers and rows —
// that cmd/experiments renders as text and EXPERIMENTS.md records next to
// the paper's numbers. Generators take an Options so benchmarks can run
// them at reduced instance counts while cmd/experiments reproduces the full
// workloads.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"densevlc/internal/parallel"
)

// Table is one regenerated result.
type Table struct {
	// ID names the paper artefact ("Fig. 8", "Table 4", …).
	ID string
	// Title describes what is shown.
	Title string
	// Header labels the columns.
	Header []string
	// Rows hold the data, already formatted.
	Rows [][]string
	// Notes carry paper-vs-measured commentary.
	Notes []string
}

// Render formats the table as aligned text.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)

	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	total := len(t.Header) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Options tune experiment workloads.
type Options struct {
	// Seed makes the stochastic workloads reproducible.
	Seed int64
	// Instances is the number of random receiver placements for the
	// Fig. 6-based studies (paper: 100). Zero selects the paper's count.
	Instances int
	// Quick shrinks every workload for smoke tests and benchmarks.
	Quick bool
	// MaxFailures bounds the failure sweep of the resilience study: the
	// largest number of transmitters killed at once. Zero selects the
	// default 8 (the acceptance envelope of the fault-injection layer).
	MaxFailures int
	// Workers bounds the worker pool the Monte-Carlo generators fan out
	// on (internal/parallel). Zero selects runtime.GOMAXPROCS(0); one
	// forces a serial run. Results are bit-identical for every worker
	// count: instances and random streams are derived before the fan-out
	// and results are collected in task order.
	Workers int
}

func (o Options) workers() int { return parallel.Workers(o.Workers) }

// fanOut runs fn(0) … fn(n-1) on the option's worker pool, collecting
// results in index order. Generators are infallible (they encode failures
// as table cells), so task errors can only be captured panics — those
// resurface on the calling goroutine, exactly like a serial run.
func fanOut[T any](o Options, n int, fn func(i int) T) []T {
	out, err := parallel.Map(context.Background(), o.workers(), n, func(i int) (T, error) {
		return fn(i), nil
	})
	if err != nil {
		var pe *parallel.PanicError
		if errors.As(err, &pe) {
			//lint:ignore apipanic re-raising a worker panic on the calling goroutine, as a serial loop would
			panic(fmt.Sprintf("%v\n%s", pe.Value, pe.Stack))
		}
		//lint:ignore apipanic unreachable: tasks return nil errors and the context is Background
		panic(err)
	}
	return out
}

func (o Options) instances() int {
	if o.Quick {
		return 10
	}
	if o.Instances <= 0 {
		return 100
	}
	return o.Instances
}

func (o Options) maxFailures() int {
	if o.MaxFailures <= 0 {
		return 8
	}
	return o.MaxFailures
}

// trials is the number of repetitions for the synchronisation and PER
// measurements, matched to the paper's runs.
func (o Options) trials() int {
	if o.Quick {
		return 200
	}
	return 5000
}

func f(format string, v ...any) string { return fmt.Sprintf(format, v...) }
