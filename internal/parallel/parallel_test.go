package parallel

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"densevlc/internal/testutil"
)

// Every test that fans out through the pool runs under the goroutine-leak
// checker: Map must not return while one of its workers is still running.

func TestMapOrdersResultsByIndex(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	for _, workers := range []int{1, 2, 8, 100} {
		got, err := Map(context.Background(), workers, 50, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 50 {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapMatchesSerialByteForByte(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	// The core determinism claim: fan-out must not change the collected
	// sequence, whatever the worker count.
	render := func(workers int) string {
		rows, err := Map(context.Background(), workers, 31, func(i int) (string, error) {
			return fmt.Sprintf("row-%02d", i), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(rows, "\n")
	}
	serial := render(1)
	for _, workers := range []int{2, 3, 8} {
		if got := render(workers); got != serial {
			t.Errorf("workers=%d output diverged from serial:\n%s\nvs\n%s", workers, got, serial)
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	const workers = 3
	var cur, peak atomic.Int64
	_, err := Map(context.Background(), workers, 64, func(i int) (struct{}, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent tasks, want ≤ %d", p, workers)
	}
}

func TestMapPanicBecomesError(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	for _, workers := range []int{1, 4} {
		_, err := Map(context.Background(), workers, 10, func(i int) (int, error) {
			if i == 7 {
				panic("boom")
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: panic not reported", workers)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: error %v is not a PanicError", workers, err)
		}
		if pe.Index != 7 || pe.Value != "boom" {
			t.Errorf("workers=%d: PanicError = {%d %v}", workers, pe.Index, pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("workers=%d: no stack captured", workers)
		}
	}
}

func TestMapReportsLowestIndexedError(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	// Force both failing tasks to be in flight together, so the pool must
	// choose which to report: the contract says the lowest index.
	var gate sync.WaitGroup
	gate.Add(2)
	_, err := Map(context.Background(), 2, 2, func(i int) (int, error) {
		gate.Done()
		gate.Wait()
		return 0, fmt.Errorf("task %d failed", i)
	})
	if err == nil || !strings.Contains(err.Error(), "task 0 failed") {
		t.Errorf("got %v, want the task 0 error", err)
	}
}

func TestMapStopsAfterError(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	var started atomic.Int64
	_, err := Map(context.Background(), 1, 1000, func(i int) (int, error) {
		started.Add(1)
		return 0, errors.New("immediate failure")
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := started.Load(); n != 1 {
		t.Errorf("started %d tasks after a first-task failure, want 1", n)
	}
}

func TestMapContextCancellation(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	_, err := Map(ctx, 2, 1000, func(i int) (int, error) {
		if started.Add(1) == 1 {
			cancel()
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n := started.Load(); n >= 1000 {
		t.Errorf("cancellation did not stop the pool (%d tasks ran)", n)
	}
}

func TestMapCancelledBeforeStart(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if _, err := Map(ctx, workers, 5, func(i int) (int, error) { return i, nil }); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: got %v, want context.Canceled", workers, err)
		}
	}
}

func TestMapZeroTasks(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	got, err := Map(context.Background(), 4, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || len(got) != 0 {
		t.Errorf("Map(n=0) = (%v, %v), want empty", got, err)
	}
}

func TestForEachWritesEverySlot(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	out := make([]int, 40)
	err := ForEach(context.Background(), 4, len(out), func(i int) error {
		out[i] = i + 1
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("slot %d = %d", i, v)
		}
	}
}

func TestWorkersDefaults(t *testing.T) {
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d", got)
	}
	if got := Workers(0); got < 1 {
		t.Errorf("Workers(0) = %d, want ≥ 1", got)
	}
	if got := Workers(-3); got < 1 {
		t.Errorf("Workers(-3) = %d, want ≥ 1", got)
	}
}

// TestMapPanicWithCapturedSliceWrites pins the pool's sharing contract: the
// closure writes a captured slice at its own task index — the sanctioned
// ordered-collection pattern, which `go test -race` must stay silent on
// because the atomic counter hands each index to exactly one worker — and
// one task panics. The panic must resurface on the calling goroutine as a
// *PanicError, with the panicking task's own write already landed.
func TestMapPanicWithCapturedSliceWrites(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	const n, bad = 64, 11
	for _, workers := range []int{1, 4} {
		touched := make([]int32, n)
		_, err := Map(context.Background(), workers, n, func(i int) (int, error) {
			touched[i] = 1 // per-index captured-slice write: element i belongs to task i alone
			if i == bad {
				panic("hot potato")
			}
			return i, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: error %v is not a PanicError", workers, err)
		}
		if pe.Index != bad || pe.Value != "hot potato" {
			t.Errorf("workers=%d: PanicError = {%d %v}", workers, pe.Index, pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("workers=%d: no stack captured", workers)
		}
		if touched[bad] != 1 {
			t.Errorf("workers=%d: panicking task's slice write lost", workers)
		}
	}
}
