// Package parallel is DenseVLC's deterministic fan-out layer: a bounded
// worker pool that runs independent tasks concurrently while keeping every
// observable output identical to a serial run.
//
// The experiment registry regenerates the paper's evaluation from hundreds
// of independent solver runs (random receiver placements, budget sweeps,
// heuristic-vs-optimal comparisons). Those runs share no state, so they can
// fan out across cores — but only if the fan-out cannot change the numbers.
// This package guarantees that by construction:
//
//   - Results are collected by task index, never by completion order, so
//     downstream reductions see the same sequence a serial loop produces.
//   - Errors are reported by the lowest-indexed failing task, the same task
//     a serial loop would have failed on first.
//   - Panics inside a task are captured and returned as errors instead of
//     tearing down the whole process from a worker goroutine.
//   - Cancellation stops the pool from starting new tasks; tasks already
//     running finish normally.
//
// The determinism rule the callers must uphold (see DESIGN.md "Parallel
// experiment engine"): derive any per-task random stream from the task
// index BEFORE calling into the pool (stats.NewRand(seed+i) style). A
// *rand.Rand shared across tasks would be consumed in scheduling order and
// the guarantee above evaporates.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count request: values above zero are used as
// given, anything else selects runtime.GOMAXPROCS(0). The result is never
// below one.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		return p
	}
	return 1
}

// PanicError wraps a panic recovered inside a pool task.
type PanicError struct {
	// Index is the task that panicked.
	Index int
	// Value is the value passed to panic.
	Value any
	// Stack is the goroutine stack at the point of the panic.
	Stack []byte
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: task %d panicked: %v", e.Index, e.Value)
}

// Map runs fn(0) … fn(n-1) on at most workers goroutines and returns the
// results ordered by index. workers ≤ 0 selects runtime.GOMAXPROCS(0);
// workers == 1 degenerates to a plain serial loop on the calling goroutine.
//
// On failure Map returns the error of the lowest-indexed task that was
// started and failed, with every lower-indexed completed result discarded —
// matching what a serial loop reports. After the first observed error (or
// once ctx is cancelled) no new tasks start; in-flight tasks run to
// completion and their results are lost.
//
// Task closures must not write captured state shared across tasks — workers
// would race and the result would depend on scheduling. The one sanctioned
// pattern is writing a captured slice at the task's own index: the atomic
// counter hands each index to exactly one worker, so per-index element
// writes are disjoint. `go test -race` enforces this contract:
// TestMapPanicWithCapturedSliceWrites exercises it in the pool, and
// TestParallelDeterminism runs every experiment generator at 1, 2 and 8
// workers. A task that panics surfaces on the calling
// goroutine as a *PanicError carrying the task index, value, and stack.
func Map[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}

	out := make([]T, n)
	errs := make([]error, n)

	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := run(i, fn)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	var (
		next   atomic.Int64 // next task index to hand out
		failed atomic.Bool  // stop handing out tasks after any error
		wg     sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if failed.Load() || ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				v, err := run(i, fn)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()

	// Report the lowest-indexed failure so the error is as close to the
	// serial loop's as scheduling allows.
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("parallel: task %d: %w", i, err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ForEach runs fn(0) … fn(n-1) on at most workers goroutines, for tasks
// whose only output is a side effect on caller-owned, per-index state. The
// error contract matches Map.
func ForEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	_, err := Map(ctx, workers, n, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}

// run invokes fn(i) converting a panic into a *PanicError.
func run[T any](i int, fn func(i int) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 64<<10)
			buf = buf[:runtime.Stack(buf, false)]
			err = &PanicError{Index: i, Value: r, Stack: buf}
		}
	}()
	return fn(i)
}
