// Command bench is DenseVLC's end-to-end benchmark. It drives four
// workloads through the entry points the runtimes ship — sim.Run,
// node.RunContext, and mac.Controller fed real report frames — each in its
// own child process, checks the plans they command, and prints every metric
// by name and unit. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
//
// Usage, from the repository root:
//
//	go run ./bench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1]
//	               [-repeat N] [-smoke] [-out DIR]
//
// Untraced runs report the end-to-end metrics; -trace 1 reports the
// per-layer metrics and writes DIR/<workload>.trace.jsonl. -repeat N is the
// A/A noise pass. See bench/README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
)

// main cancels the run on SIGINT or SIGTERM, which kills the running
// workload child and waits for it before exiting.
func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// options are the flags; the parent passes them on to each child.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	repeat   int
	out      string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all four)")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload inputs are drawn from")
	fs.Float64Var(&o.seconds, "seconds", 12, "timed seconds per workload; at least 1000 epochs are timed regardless")
	fs.Func("trace", "1 for the traced run: per-layer metrics and a span file per workload (default 0)", func(s string) error {
		v, err := strconv.ParseBool(s)
		o.trace = v
		return err
	})
	fs.BoolVar(&o.smoke, "smoke", false, "tiny epoch counts: exercises the harness, measures nothing")
	fs.IntVar(&o.repeat, "repeat", 0, "A/A noise pass: N >= 5 rounds of every workload on -seed and on a new seed, deriving the end-to-end bounds")
	fs.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for trace files and the A/A summary")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	var bad error
	switch {
	case fs.NArg() > 0:
		bad = fmt.Errorf("unexpected arguments %q", fs.Args())
	case o.seconds < 0 || o.seconds > 60:
		bad = fmt.Errorf("-seconds %g outside [0, 60]", o.seconds)
	case o.repeat != 0 && o.repeat < 5:
		bad = fmt.Errorf("-repeat %d: an A/A pass needs at least 5 runs", o.repeat)
	case o.repeat != 0 && o.trace:
		bad = errors.New("-repeat measures the end-to-end metrics, which come from untraced runs; drop -trace")
	case o.workload != "":
		_, bad = lookupWorkload(o.workload)
	}
	if bad != nil {
		log.New(stderr, "bench: ", 0).Print(bad)
	}
	return o, bad
}

func (o options) args() []string {
	args := []string{
		"-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.FormatBool(o.trace),
		"-out", o.out,
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	return args
}

// selected returns the workloads the options name, in their fixed order.
func (o options) selected() []workloadDef {
	if o.workload == "" {
		return workloads
	}
	wl, _ := lookupWorkload(o.workload) // validated by parseFlags
	return []workloadDef{wl}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if os.Getenv(childEnv) == "1" {
		return childMain(args, stdout, stderr)
	}
	o, err := parseFlags(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2
	}
	if o.repeat > 0 {
		return repeatMain(ctx, o, stdout, stderr)
	}
	logger := log.New(stderr, "bench: ", 0)
	var results []*childResult
	for _, wl := range o.selected() {
		wo := o
		wo.workload = wl.name
		res := runChild(ctx, wo, childDeadline, stderr)
		var b strings.Builder
		formatResult(&b, res)
		if _, err := io.WriteString(stdout, b.String()); err != nil {
			logger.Print(err)
			return 1
		}
		results = append(results, res)
	}
	sum := summarize(results, o.trace)
	if err := json.NewEncoder(stdout).Encode(sum); err != nil {
		logger.Print(err)
		return 1
	}
	if !sum.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summarize merges the children's results. Untraced, the metrics are the
// end-to-end ones; traced, every per-layer metric, with 0 where the layer
// is not exercised by the workload or not visible from outside it. With
// several workloads each name is prefixed by its workload.
func summarize(results []*childResult, trace bool) summary {
	sum := summary{Correct: len(results) > 0, Metrics: map[string]metricValue{}}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, r := range results {
		sum.Correct = sum.Correct && r.Correct
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
		for _, d := range defs {
			v, ok := r.Metrics[d.name]
			if !ok && !trace {
				continue
			}
			key := d.name
			if len(results) > 1 {
				key = r.Workload + "." + d.name
			}
			sum.Metrics[key] = metricValue{Value: v, Unit: d.unit}
		}
	}
	return sum
}

// formatResult renders one workload's result for a reader.
func formatResult(w *strings.Builder, r *childResult) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	verdict := "correct"
	if !r.Correct {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  %d timed epochs  digest %s  %s\n", r.Workload, r.Seed, mode, r.Epochs, r.Digest, verdict)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "   error: %s\n", e)
	}
	defs, layer := endToEnd, ""
	if r.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		if d.layer != layer {
			layer = d.layer
			fmt.Fprintf(w, "   [%s]\n", layer)
		}
		v, ok := r.Metrics[d.name]
		text := "n/a"
		if ok {
			text = formatValue(v)
		}
		fmt.Fprintf(w, "   %-28s %14s %s\n", d.name, text, d.unit)
	}
	if len(r.SelfTime) > 0 {
		fmt.Fprintf(w, "   self time per timed epoch:\n   %-28s %10s %8s %7s %10s\n", "span", "calls/ep", "ms/ep", "share", "mean µs")
		calls := float64(max(r.Epochs, 1))
		for _, s := range r.SelfTime {
			fmt.Fprintf(w, "   %-28s %10.1f %8.3f %6.1f%% %10.2f\n", s.Name, float64(s.Calls)/calls, s.SelfMS, 100*s.Share, s.MeanUSec)
		}
	}
	fmt.Fprintf(w, "   attempted %d epochs, failed %d\n", r.Attempted, r.Failed)
}
