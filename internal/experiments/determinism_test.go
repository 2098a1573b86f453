package experiments

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"densevlc/internal/stats"
)

// exportCSV renders one experiment to its canonical exported bytes.
func exportCSV(t *testing.T, g Generator, opts Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	tab := g.Run(opts)
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatalf("%s: export: %v", g.Name, err)
	}
	return buf.Bytes()
}

// firstDiff locates the first byte where two exports diverge, for a readable
// failure message.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 40
			if lo < 0 {
				lo = 0
			}
			return fmt.Sprintf("byte %d: %q vs %q", i, a[lo:i+1], b[lo:i+1])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d", len(a), len(b))
}

// TestParallelDeterminism is the shippability gate for the parallel engine:
// for every fanned-out generator, the exported table from a serial run
// (Workers: 1) must be byte-identical to a heavily oversubscribed parallel
// run (Workers: 8). Instances and random streams are derived before the
// fan-out and results are collected in task order, so any divergence means
// scheduling leaked into the numbers. The stopwatch is pinned so the
// timing-valued cells of the speedup table cannot differ for reasons other
// than scheduling leaks. Run under -race in CI.
func TestParallelDeterminism(t *testing.T) {
	restore := stats.PinElapsed(time.Millisecond)
	defer restore()

	// Every generator that fans out, plus speedup's timing table.
	names := []string{"fig6", "fig8", "fig10", "fig11", "speedup", "adaptation", "adaptivekappa", "resilience", "clusterscale", "incremental", "churn"}
	for _, name := range names {
		g, ok := Lookup(name)
		if !ok {
			t.Fatalf("unknown experiment %q", name)
		}
		serial := exportCSV(t, g, Options{Seed: 1, Quick: true, Workers: 1})
		for _, workers := range []int{2, 8} {
			par := exportCSV(t, g, Options{Seed: 1, Quick: true, Workers: workers})
			if !bytes.Equal(serial, par) {
				t.Errorf("%s: Workers=%d diverged from serial: %s", name, workers, firstDiff(serial, par))
			}
		}
	}
}

// TestParallelDeterminismAcrossSeeds spot-checks that the guarantee is not
// an artefact of seed 1.
func TestParallelDeterminismAcrossSeeds(t *testing.T) {
	g, _ := Lookup("fig6")
	for _, seed := range []int64{2, 42} {
		serial := exportCSV(t, g, Options{Seed: seed, Quick: true, Workers: 1})
		par := exportCSV(t, g, Options{Seed: seed, Quick: true, Workers: 8})
		if !bytes.Equal(serial, par) {
			t.Errorf("seed %d: parallel diverged: %s", seed, firstDiff(serial, par))
		}
	}
}
