package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"math"
	"os"
	"os/exec"
	"strconv"
	"time"
)

const (
	// childDeadline bounds one workload's child process; a hang becomes a
	// recorded failure instead of a stuck benchmark.
	childDeadline = 120 * time.Second
	// childEnv marks a process as a workload child.
	childEnv = "DENSEVLC_BENCH_CHILD"
	// stageSumLimit is how far floor-churn's traced stage self-times may
	// sum away from the epoch wall time.
	stageSumLimit = 0.05
)

// sizes fixes one measurement's length: warm-up epochs per execution, how
// many set-up-only executions precede the measured one, and the fewest
// timed epochs (1000 gives p99 ten samples beyond it).
type sizes struct{ warmup, setups, minTimed int }

func sizesFor(wl workloadDef, smoke bool) sizes {
	if smoke {
		return sizes{warmup: 3, setups: 1, minTimed: 5}
	}
	return sizes{warmup: wl.warmup, setups: 4, minTimed: 1000}
}

// childResult is what a workload child reports to the parent.
type childResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Errors    []string           `json:"errors,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Epochs    int                `json:"timed_epochs"`
	Digest    string             `json:"digest"`
	Metrics   map[string]float64 `json:"metrics"`
	SelfTime  []selfRow          `json:"self_time,omitempty"`
}

func (r *childResult) fail(format string, args ...any) {
	r.Correct = false
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// count records the timed epochs as attempts and those that failed.
func (r *childResult) count(out *runOut, timed window) {
	r.Attempted = timed.len()
	for _, f := range out.failed[timed.from:timed.to] {
		if f {
			r.Failed++
		}
	}
}

// failedChild is the result recorded for a child that did not report.
func failedChild(o options, format string, args ...any) *childResult {
	r := &childResult{Workload: o.workload, Seed: o.seed, Trace: o.trace, Attempted: 1, Failed: 1}
	r.fail(format, args...)
	return r
}

// execute runs one workload execution of the given length.
func execute(ctx context.Context, wl workloadDef, seed int64, warmup, epochs int, tr *tracer) (*runOut, error) {
	out, err := wl.run(ctx, runParams{seed: seed, epochs: epochs, clock: newEpochClock(warmup, epochs), tr: tr})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	return out, nil
}

// digest fingerprints the first epochs of an execution: every allocation
// frame as it went on the wire and the plan's system throughput.
func digest(o *runOut, epochs int) string {
	h := fnv.New64a()
	var b [8]byte
	for k := 0; k < epochs; k++ {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(o.mbps[k]))
		_, _ = h.Write(o.clock.frames[k]) // hash writes never fail
		_, _ = h.Write(b[:])
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// measure runs one workload in this process. Set-up-only executions come
// first: they give setup_s its median and check that every execution of the
// seed produces the same warm-up plans. The timed window is a fixed epoch
// count, -seconds at the workload's reference rate, so every run of a seed
// does the same work. Untraced, one execution is measured. Traced, an
// untraced reference of the shortest timed window is followed by the traced
// execution, and their plans must agree over that window.
func measure(ctx context.Context, wl workloadDef, o options) *childResult {
	sz := sizesFor(wl, o.smoke)
	w := sz.warmup
	res := &childResult{Workload: wl.name, Seed: o.seed, Trace: o.trace, Correct: true}
	// shared is the timed window every execution of the seed covers: the
	// digest reported and compared between runs.
	shared := window{w, w + sz.minTimed}
	var setups []float64
	warm := ""
	checkRun := func(what string, out *runOut) {
		for _, v := range out.violations {
			res.fail("%s: %s", what, v)
		}
		if d := digest(out, w); warm == "" {
			warm = d
		} else if d != warm {
			res.fail("%s: warm-up digest %s differs from %s", what, d, warm)
		}
	}

	for i := 0; i < sz.setups; i++ {
		out, err := execute(ctx, wl, o.seed, w, w, nil)
		if err != nil {
			res.fail("set-up %d: %v", i, err)
			return res
		}
		checkRun(fmt.Sprintf("set-up %d", i), out)
		setups = append(setups, setupTime(out.clock, w).Seconds())
	}
	timedEpochs := sz.minTimed
	if !o.smoke {
		timedEpochs = max(timedEpochs, int(math.Round(o.seconds*wl.epochsPerSec)))
	}
	timed := window{w, w + timedEpochs}
	res.Epochs = timed.len()

	if !o.trace {
		out, err := execute(ctx, wl, o.seed, w, timed.to, nil)
		if err != nil {
			res.fail("%v", err)
			return res
		}
		checkRun("measured run", out)
		setups = append(setups, setupTime(out.clock, w).Seconds())
		res.Metrics = endToEndMetrics(out, timed, setups)
		res.Metrics["peak_rss_mb"] = float64(sampleRuntime().maxRSSKB) / 1024
		res.Digest = digest(out, shared.to)
		res.count(out, timed)
		return res
	}

	ref, err := execute(ctx, wl, o.seed, w, shared.to, nil)
	if err != nil {
		res.fail("reference run: %v", err)
		return res
	}
	checkRun("reference run", ref)
	tr := newTracer(wl.spansPerEpoch * (timed.to + 1))
	out, err := execute(ctx, wl, o.seed, w, timed.to, tr)
	if err != nil {
		res.fail("traced run: %v", err)
		return res
	}
	checkRun("traced run", out)
	res.Digest = digest(out, shared.to)
	if d := digest(ref, shared.to); d != res.Digest {
		res.fail("traced plans (digest %s) differ from untraced plans (digest %s)", res.Digest, d)
	}
	spans, err := tr.recorded()
	if err != nil {
		res.fail("%v", err)
		return res
	}
	self := selfTimes(spans)
	res.Metrics = perLayerMetrics(wl.name, out, collectSpans(spans, self, timed), timed, ref, shared)
	res.SelfTime = selfTable(spans, self, timed.from, timed.to)
	if e := res.Metrics["stage_sum_error"]; wl.name == "floor-churn" && !o.smoke && e > stageSumLimit {
		res.fail("traced stage self-times miss the epoch wall time by %.1f%% (limit %.0f%%)", 100*e, 100*stageSumLimit)
	}
	if err := writeTrace(o.out, wl.name, spans); err != nil {
		res.fail("writing the trace: %v", err)
	}
	res.count(out, timed)
	return res
}

// childMain runs one workload and prints its result as JSON.
func childMain(args []string, stdout, stderr io.Writer) int {
	logger := log.New(stderr, "bench child: ", 0)
	o, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	wl, err := lookupWorkload(o.workload)
	if err != nil {
		logger.Print(err)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), childDeadline)
	defer cancel()
	if err := json.NewEncoder(stdout).Encode(measure(ctx, wl, o)); err != nil {
		logger.Print(err)
		return 1
	}
	return 0
}

// runChild runs one workload in a child process of this program, under
// GOMAXPROCS=2 and a deadline. A child that hangs is killed and recorded as
// failed; so is one that exits without a result.
func runChild(ctx context.Context, o options, deadline time.Duration, stderr io.Writer) *childResult {
	exe, err := os.Executable()
	if err != nil {
		return failedChild(o, "locating the benchmark binary: %v", err)
	}
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, o.args()...)
	cmd.Env = append(os.Environ(), childEnv+"=1", "GOMAXPROCS=2")
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, stderr
	err = cmd.Run()
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return failedChild(o, "no result within the %s deadline; the child was killed", deadline)
	}
	if err != nil {
		return failedChild(o, "child: %v", err)
	}
	var res childResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return failedChild(o, "child printed no result: %v", err)
	}
	return &res
}
