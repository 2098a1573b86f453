package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"densevlc/internal/frame"
	"densevlc/internal/mac"
	"densevlc/internal/scenario"
)

// hangEnv makes a child process of the test binary hang instead of
// running a workload, to exercise the child deadline.
const hangEnv = "DENSEVLC_BENCH_TEST_HANG"

// TestMain lets the test binary stand in for the benchmark binary when the
// parent under test spawns a workload child.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		if os.Getenv(hangEnv) == "1" {
			time.Sleep(time.Hour)
		}
		os.Exit(childMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// lastJSON parses the summary line the benchmark prints last.
func lastJSON(t *testing.T, out []byte) summary {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("last line is not the summary: %v\n%s", err, out)
	}
	return s
}

// TestSmoke runs every workload through the parent/child harness with tiny
// epoch counts, untraced and traced, and checks the summary contract.
func TestSmoke(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		dir := t.TempDir()
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), []string{"-smoke", "-trace", trace, "-seed", "2", "-out", dir}, &stdout, &stderr); code != 0 {
			t.Fatalf("-trace %s: exit %d\n%s\n%s", trace, code, stdout.String(), stderr.String())
		}
		s := lastJSON(t, stdout.Bytes())
		if !s.Correct || s.Attempted < len(workloads) || s.Failed != 0 {
			t.Errorf("-trace %s: summary %+v", trace, s)
		}
		for _, wl := range workloads {
			want := []string{"epoch_p50_ms", "setup_s", "system_mbps", "peak_rss_mb"}
			if trace == "1" {
				want = nil
				for _, d := range perLayer {
					want = append(want, d.name)
				}
				if _, err := os.Stat(filepath.Join(dir, wl.name+".trace.jsonl")); err != nil {
					t.Errorf("no trace file: %v", err)
				}
			}
			for _, name := range want {
				if _, ok := s.Metrics[wl.name+"."+name]; !ok {
					t.Errorf("-trace %s: summary lacks %s.%s", trace, wl.name, name)
				}
			}
		}
	}
}

// TestTracingIsTransparent: the tracing wrappers must not change what the
// system does. Each workload's plans and throughput digest are the same
// with and without the tracer.
func TestTracingIsTransparent(t *testing.T) {
	const warmup, epochs = 3, 8
	for _, wl := range workloads {
		plain, err := execute(context.Background(), wl, 3, warmup, epochs, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer(wl.spansPerEpoch * (epochs + 1))
		traced, err := execute(context.Background(), wl, 3, warmup, epochs, tr)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := digest(plain, epochs), digest(traced, epochs); a != b {
			t.Errorf("%s: digest %s untraced, %s traced", wl.name, a, b)
		}
		spans, err := tr.recorded()
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		epochSpans := 0
		for _, s := range spans {
			if s.name == spanEpoch {
				epochSpans++
			}
		}
		if epochSpans != epochs {
			t.Errorf("%s: %d epoch spans, want %d", wl.name, epochSpans, epochs)
		}
		if len(plain.violations) > 0 || len(traced.violations) > 0 {
			t.Errorf("%s: violations %v %v", wl.name, plain.violations, traced.violations)
		}
	}
}

// TestChildDeadlineRecordsHang: a child that hangs is killed at the
// deadline and comes back as a failed result, not a stuck benchmark.
func TestChildDeadlineRecordsHang(t *testing.T) {
	t.Setenv(hangEnv, "1")
	start := time.Now()
	res := runChild(context.Background(), options{workload: "room-udp", seed: 1, out: t.TempDir()}, 300*time.Millisecond, os.Stderr)
	if res.Correct || res.Failed != 1 || len(res.Errors) == 0 || !strings.Contains(res.Errors[0], "deadline") {
		t.Errorf("hung child recorded as %+v", res)
	}
	if el := time.Since(start); el > 30*time.Second {
		t.Errorf("deadline of 300ms took %s to fire", el)
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.99); err == nil {
		t.Error("p99 of 999 samples accepted")
	}
	xs = append(xs, 1000)
	if v, err := percentile(xs, 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if v, err := percentile([]float64{4}, 0.5); err != nil || v != 4 {
		t.Errorf("p50 of one sample = %v, %v", v, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of nothing accepted")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{0.9, 1.3, 1.1, 1.0, 1.2}, [3]float64{0.95, 1.1, 1.25}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
				break
			}
		}
	}
}

// TestSelfTimeMergesParallelChildren: a parent's self time subtracts the
// union of its children, so overlapping solves are not counted twice.
func TestSelfTimeMergesParallelChildren(t *testing.T) {
	spans := []span{
		{id: 1, name: spanEpoch, start: 0, end: 100},
		{id: 2, parent: 1, name: spanReallocate, start: 10, end: 60},
		{id: 3, parent: 2, name: spanSolve, start: 20, end: 40},
		{id: 4, parent: 2, name: spanSolve, start: 30, end: 50},
		{id: 5, parent: 1, name: spanStep, start: 70, end: 90},
	}
	self := selfTimes(spans)
	for i, want := range []time.Duration{30, 20, 20, 20, 20} {
		if self[i] != want {
			t.Errorf("self time of span %d = %d, want %d", spans[i].id, self[i], want)
		}
	}
	st := collectSpans(spans, self, window{0, 1})
	if st.stageSelf != 80 || st.dur[spanEpoch] != 100 {
		t.Errorf("stage self %d over epoch %d", st.stageSelf, st.dur[spanEpoch])
	}
	rows := selfTable(spans, self, 0, 1)
	if rows[0].Name != "alloc.allocate" || rows[0].Calls != 2 || math.Abs(rows[0].Share-0.4) > 1e-12 {
		t.Errorf("self table %+v", rows)
	}
}

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"--workload", "floor-churn", "--seed", "7", "--seconds", "10", "--trace", "1"}, os.Stderr)
	if err != nil || o.workload != "floor-churn" || o.seed != 7 || o.seconds != 10 || !o.trace {
		t.Errorf("double-dash flags parsed as %+v, %v", o, err)
	}
	back, err := parseFlags(o.args(), os.Stderr)
	if err != nil || back != o {
		t.Errorf("args round trip %+v → %+v, %v", o, back, err)
	}
	var sink bytes.Buffer
	for _, bad := range [][]string{{"-workload", "nope"}, {"-repeat", "3"}, {"-repeat", "5", "-trace", "1"}, {"-seconds", "-1"}, {"-trace", "maybe"}, {"extra"}} {
		if _, err := parseFlags(bad, &sink); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestDeriveBounds(t *testing.T) {
	bounds, noisy := deriveBounds(map[string]float64{
		"setup_s":      0.021,
		"epoch_p50_ms": 0.3,
		"system_mbps":  0.004,
		"peak_rss_mb":  0.05,
	})
	want := map[string]float64{"setup_s": 0.07, "system_mbps": minBound, "peak_rss_mb": maxBound}
	if len(bounds) != len(want) {
		t.Errorf("bounds %v, want %v", bounds, want)
	}
	for name, b := range want {
		if math.Abs(bounds[name]-b) > 1e-12 {
			t.Errorf("%s: bound %g, want %g", name, bounds[name], b)
		}
	}
	if len(noisy) != 1 || noisy[0] != "epoch_p50_ms" {
		t.Errorf("noisy %v", noisy)
	}
	// setup_s is held to the same cap as every other metric.
	if _, noisy := deriveBounds(map[string]float64{"setup_s": 0.2}); len(noisy) != 1 || noisy[0] != "setup_s" {
		t.Errorf("setup_s spreading 20%%: noisy %v", noisy)
	}
}

// TestBenchmarkJSONMatchesCatalog: BENCHMARK.json names the workloads and
// metrics this program prints, with bounds inside the benchmark's limits.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", benchmarkFile))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(b.Paths, []string{"bench"}) || !slices.Equal(b.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("paths %q, command %q: the benchmark is this directory, run by its run.sh", b.Paths, b.Command)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q / %q here %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts %d/%d, want %d/%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	largest := 0.0
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end %d = %+v, want %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > boundCeiling {
			t.Errorf("%s: bound %g outside (0, %g]", m.Name, m.Bound, boundCeiling)
		}
		largest = math.Max(largest, m.Bound)
	}
	if b.EndToEnd[0].Name != "setup_s" || b.EndToEnd[0].Bound < largest {
		t.Errorf("setup_s must carry the largest bound")
	}
	for i, m := range b.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d = %+v, want %+v", i, m, d)
		}
	}
}

// TestUpdateBoundsKeepsTheRest: writing derived bounds changes only the
// bounds, keeps those of metrics without a derived bound, and leaves
// setup_s with the largest.
func TestUpdateBoundsKeepsTheRest(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", benchmarkFile))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), benchmarkFile)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := updateBounds(path, map[string]float64{"epoch_p50_ms": 0.03, "setup_s": minBound}); err != nil {
		t.Fatal(err)
	}
	var before, after benchmarkJSON
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if json.Unmarshal(raw, &before) != nil || json.Unmarshal(got, &after) != nil {
		t.Fatal("unparsable BENCHMARK.json")
	}
	largest := 0.03
	for _, m := range before.EndToEnd {
		if m.Name != "epoch_p50_ms" && m.Name != "setup_s" {
			largest = math.Max(largest, m.Bound)
		}
	}
	for i := range after.EndToEnd {
		want := before.EndToEnd[i]
		switch want.Name {
		case "epoch_p50_ms":
			want.Bound = 0.03
		case "setup_s":
			want.Bound = largest
		}
		if after.EndToEnd[i] != want {
			t.Errorf("entry %d became %+v, want %+v", i, after.EndToEnd[i], want)
		}
	}
	if after.RunSeconds != before.RunSeconds || len(after.PerLayer) != len(before.PerLayer) || after.Command[0] != before.Command[0] {
		t.Error("updateBounds changed more than the bounds")
	}
}

// TestRepeatPass runs the A/A pass on one workload with tiny runs and
// checks it summarises every end-to-end metric on one seed and across
// seeds, and that the runs on one seed read the same plan throughput.
func TestRepeatPass(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-smoke", "-repeat", "5", "-workload", "room-udp", "-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	raw, err := os.ReadFile(filepath.Join(dir, "aa.json"))
	if err != nil {
		t.Fatal(err)
	}
	var aa struct {
		Summary     map[string]map[string]quartileSummary `json:"summary"`
		Values      map[string]map[string][]float64       `json:"values"`
		SeedsValues map[string]map[string][]float64       `json:"seeds_values"`
	}
	if err := json.Unmarshal(raw, &aa); err != nil {
		t.Fatal(err)
	}
	got := aa.Summary["room-udp"]
	for _, name := range []string{"setup_s", "epoch_p50_ms", "system_mbps", "peak_rss_mb"} {
		if s, ok := got[name]; !ok || !(s.Q1 <= s.Median && s.Median <= s.Q3) {
			t.Errorf("%s summarised as %+v, %v", name, s, ok)
		}
	}
	if s := got["system_mbps"]; s.Spread != 0 || s.SeedsSpread == 0 {
		t.Errorf("system_mbps spreads %g on one seed, %g across seeds; want 0 and more", s.Spread, s.SeedsSpread)
	}
	if n, m := len(aa.Values["room-udp"]["system_mbps"]), len(aa.SeedsValues["room-udp"]["system_mbps"]); n != 5 || m != 5 {
		t.Errorf("%d runs on one seed, %d across seeds; want 5 each", n, m)
	}
}

// TestCheckWirePlan: the wire check passes a plan exactly at the budget and
// fails one a full-swing transmitter over it.
func TestCheckWirePlan(t *testing.T) {
	setup := scenario.Default()
	wire := func(txs int) []byte {
		a := mac.Allocation{}
		for j := 0; j < txs; j++ {
			a.Commands = append(a.Commands, mac.TXCommand{TX: j, RX: 0, SwingMilliAmps: 900})
		}
		raw, err := frame.Downlink{
			Eth: frame.Eth{EtherType: frame.EtherTypeVLC},
			MAC: frame.MAC{Protocol: mac.ProtoAllocation, Payload: a.Encode()},
		}.Serialize()
		if err != nil {
			t.Fatal(err)
		}
		if downlinkProto(raw) != mac.ProtoAllocation {
			t.Fatalf("protocol peek read %#x", downlinkProto(raw))
		}
		return raw
	}
	const fits = 10
	budget := fits * setup.LED.MaxCommPower()
	if err := checkWirePlan(wire(fits), setup, budget); err != nil {
		t.Errorf("%d full-swing TXs: %v", fits, err)
	}
	if err := checkWirePlan(wire(fits+1), setup, budget); err == nil {
		t.Errorf("%d full-swing TXs passed a budget for %d", fits+1, fits)
	}
}
