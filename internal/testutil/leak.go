// Package testutil provides test-only helpers shared across the suites.
//
// Its centerpiece is the goroutine-leak checker: any goroutine started
// during a test that is still running when the test finishes (after
// Close/RunContext teardown, or after parallel.Map returns) is a leak. Every
// `go` statement in the module has a suite that runs under it: transport,
// node, chaos, mac and parallel.
package testutil

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// defaultSettle is how long the checker waits for in-flight goroutines to
// drain before declaring a leak. Teardown paths (conn close propagation,
// wg.Wait returns) finish in microseconds normally, but -race CI runners
// can stall; the retry loop exits as soon as the snapshot is clean, so the
// full window is only ever paid by genuinely leaking tests.
const defaultSettle = 5 * time.Second

// CheckLeaks snapshots the running goroutines and returns a function that
// fails the test if new goroutines are still running when called. Use it as
// the first deferred statement so it runs after every other cleanup:
//
//	defer testutil.CheckLeaks(t)()
//	net := transport.NewMemNetwork(...)
//	defer net.Close()
func CheckLeaks(t testing.TB) func() {
	return CheckLeaksWithin(t, defaultSettle)
}

// CheckLeaksWithin is CheckLeaks with an explicit settle window, for tests
// of the checker itself and suites that want a tighter bound.
func CheckLeaksWithin(t testing.TB, settle time.Duration) func() {
	t.Helper()
	base := goroutineSnapshot()
	return func() {
		t.Helper()
		deadline := time.Now().Add(settle)
		delay := time.Millisecond
		var leaked []goroutine
		for {
			leaked = leakedSince(base)
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(delay)
			if delay < 100*time.Millisecond {
				delay *= 2
			}
		}
		sort.Slice(leaked, func(i, j int) bool { return leaked[i].id < leaked[j].id })
		for _, g := range leaked {
			t.Errorf("testutil: leaked goroutine %d [%s] outlived the test:\n%s", g.id, g.state, g.stack)
		}
	}
}

// goroutine is one parsed entry of a runtime.Stack(all=true) dump.
type goroutine struct {
	id    int64
	state string
	stack string
}

// goroutineSnapshot captures every current goroutine keyed by ID. Goroutine
// IDs are monotonically increasing and never reused, so membership in the
// baseline identifies pre-existing goroutines exactly.
func goroutineSnapshot() map[int64]bool {
	ids := make(map[int64]bool)
	for _, g := range parseStacks(allStacks()) {
		ids[g.id] = true
	}
	return ids
}

// leakedSince returns the goroutines running now that are not in the
// baseline and not on the benign list.
func leakedSince(base map[int64]bool) []goroutine {
	var out []goroutine
	for _, g := range parseStacks(allStacks()) {
		if base[g.id] || benignGoroutine(g) {
			continue
		}
		out = append(out, g)
	}
	return out
}

// benignGoroutine filters runtime- and testing-owned goroutines that may
// legitimately start mid-test: the test runner's own machinery and timer
// goroutines the runtime parks and reuses.
func benignGoroutine(g goroutine) bool {
	for _, marker := range []string{
		"testing.(*T).Run",
		"testing.(*M).Run",
		"testing.runTests",
		"testing.tRunner.func",
		"runtime.goexit0",
		"runtime.ReadTrace",
		"os/signal.loop",
	} {
		if strings.Contains(g.stack, marker) {
			return true
		}
	}
	return false
}

// allStacks dumps every goroutine's stack, growing the buffer until the dump
// fits.
func allStacks() string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return string(buf[:n])
		}
		buf = make([]byte, 2*len(buf))
	}
}

// parseStacks splits a runtime.Stack dump into per-goroutine entries. Each
// block starts "goroutine <id> [<state>]:".
func parseStacks(dump string) []goroutine {
	var out []goroutine
	for _, block := range strings.Split(dump, "\n\n") {
		block = strings.TrimSpace(block)
		if block == "" {
			continue
		}
		header, rest, _ := strings.Cut(block, "\n")
		idPart, ok := strings.CutPrefix(header, "goroutine ")
		if !ok {
			continue
		}
		idStr, statePart, _ := strings.Cut(idPart, " ")
		var id int64
		if _, err := fmt.Sscanf(idStr, "%d", &id); err != nil {
			continue
		}
		state := strings.TrimSuffix(strings.TrimPrefix(statePart, "["), "]:")
		out = append(out, goroutine{id: id, state: state, stack: rest})
	}
	return out
}
