package main

import (
	"fmt"
	"math"
	"time"

	"densevlc/internal/mac"
)

// metricDef names one metric. BENCHMARK.json lists the same names; the
// end-to-end bounds live there.
type metricDef struct {
	name, unit, better string
	layer              string // empty for an end-to-end metric
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "epoch_p50_ms", unit: "ms", better: "lower"},
	{name: "system_mbps", unit: "Mb/s", better: "higher"},
	{name: "peak_rss_mb", unit: "MiB", better: "lower"},
}

var perLayer = []metricDef{
	{layer: "epoch", name: "epochs_per_s", unit: "1/s", better: "higher"},
	{layer: "epoch", name: "epoch_p99_ms", unit: "ms", better: "lower"},
	{layer: "transport", name: "multicasts_per_epoch", unit: "count", better: "lower"},
	{layer: "transport", name: "multicast_bytes_per_epoch", unit: "B", better: "lower"},
	{layer: "transport", name: "multicast_ms_per_epoch", unit: "ms", better: "lower"},
	{layer: "transport", name: "uplink_ms_per_epoch", unit: "ms", better: "lower"},
	{layer: "frame", name: "report_decode_ms_per_epoch", unit: "ms", better: "lower"},
	{layer: "frame", name: "report_encode_ms_per_epoch", unit: "ms", better: "lower"},
	{layer: "frame", name: "report_bytes", unit: "B", better: "lower"},
	{layer: "frame", name: "alloc_serialize_ms", unit: "ms", better: "lower"},
	{layer: "scenario", name: "move_rx_per_epoch", unit: "count", better: "lower"},
	{layer: "scenario", name: "move_rx_ms_per_epoch", unit: "ms", better: "lower"},
	{layer: "workload", name: "step_ms_per_epoch", unit: "ms", better: "lower"},
	{layer: "workload", name: "arrivals_per_epoch", unit: "count", better: "higher"},
	{layer: "workload", name: "departures_per_epoch", unit: "count", better: "lower"},
	{layer: "workload", name: "rejections_per_epoch", unit: "count", better: "lower"},
	{layer: "workload", name: "population_mean", unit: "count", better: "higher"},
	{layer: "mac", name: "report_build_ms_per_epoch", unit: "ms", better: "lower"},
	{layer: "mac", name: "ingest_ms_per_epoch", unit: "ms", better: "lower"},
	{layer: "mac", name: "decision_p50_ms", unit: "ms", better: "lower"},
	{layer: "mac", name: "decision_p99_ms", unit: "ms", better: "lower"},
	{layer: "mac", name: "reallocate_self_ms", unit: "ms", better: "lower"},
	{layer: "mac", name: "solved_epoch_share", unit: "share", better: "lower"},
	{layer: "cluster", name: "k_mean", unit: "count", better: "higher"},
	{layer: "cluster", name: "max_txs", unit: "count", better: "lower"},
	{layer: "cluster", name: "dirty_share", unit: "share", better: "lower"},
	{layer: "alloc", name: "solves_per_epoch", unit: "count", better: "lower"},
	{layer: "alloc", name: "solve_ms_per_epoch", unit: "ms", better: "lower"},
	{layer: "alloc", name: "solve_p50_ms", unit: "ms", better: "lower"},
	{layer: "alloc", name: "solve_p99_ms", unit: "ms", better: "lower"},
	{layer: "alloc", name: "solve_cells_mean", unit: "count", better: "lower"},
	{layer: "node", name: "frames_acked_per_s", unit: "1/s", better: "higher"},
	{layer: "node", name: "frames_sent_per_round", unit: "count", better: "lower"},
	{layer: "node", name: "retransmits_per_round", unit: "count", better: "lower"},
	{layer: "node", name: "frames_failed_per_round", unit: "count", better: "lower"},
	{layer: "node", name: "reports_missed_share", unit: "share", better: "lower"},
	{layer: "node", name: "data_phase_ms", unit: "ms", better: "lower"},
	{layer: "sim", name: "unattributed_ms_per_epoch", unit: "ms", better: "lower"},
	{layer: "sim", name: "active_txs_mean", unit: "count", better: "higher"},
	{layer: "runtime", name: "cpu_util", unit: "share", better: "lower"},
	{layer: "runtime", name: "alloc_kb_per_epoch", unit: "KiB", better: "lower"},
	{layer: "runtime", name: "gc_per_1k_epochs", unit: "count", better: "lower"},
	{layer: "harness", name: "stage_sum_error", unit: "share", better: "lower"},
	{layer: "harness", name: "trace_overhead", unit: "share", better: "lower"},
	{layer: "harness", name: "failed_share", unit: "share", better: "lower"},
}

// window is the timed part of an execution: epochs [from, to).
type window struct{ from, to int }

func (w window) len() int { return w.to - w.from }

// intervals returns the timed epochs' durations and their sum.
func (w window) intervals(c *epochClock) ([]time.Duration, time.Duration) {
	out := make([]time.Duration, 0, w.len())
	var sum time.Duration
	for k := w.from; k < w.to; k++ {
		d := c.ends[k] - c.begins[k]
		out = append(out, d)
		sum += d
	}
	return out, sum
}

// setupTime is the time from workload start to the first timed epoch.
func setupTime(c *epochClock, warmup int) time.Duration { return c.ends[warmup-1] - c.begins[0] }

// endToEndMetrics computes the user-visible metrics of an untraced
// execution. The epoch rate and the epoch time's p99 are not among them:
// both follow the slowest epochs, which on a shared 2-vCPU host spread them
// by more than a regression bound may take, so the traced run reports them.
func endToEndMetrics(o *runOut, timed window, setups []float64) map[string]float64 {
	m := map[string]float64{"setup_s": median(setups), "system_mbps": mean(o.mbps[timed.from:timed.to])}
	iv, _ := timed.intervals(o.clock)
	if v, err := percentile(msSamples(iv), 0.5); err == nil {
		m["epoch_p50_ms"] = v
	}
	return m
}

func putPercentiles(m map[string]float64, prefix string, xs []float64) {
	for _, q := range []struct {
		name string
		q    float64
	}{{"p50", 0.5}, {"p99", 0.99}} {
		if v, err := percentile(xs, q.q); err == nil {
			m[prefix+"_"+q.name+"_ms"] = v
		}
	}
}

// spanStats aggregates the traced execution's spans over the timed window.
type spanStats struct {
	calls       [spanCount]int
	dur, self   [spanCount]time.Duration
	bytes       [spanCount]int64
	reportBytes []float64
	solveMS     []float64
	solveCells  []float64
	solveEpoch  map[int32]time.Duration // summed solve time per epoch that solved
	stageSelf   time.Duration           // self time of every span below the epochs
}

func collectSpans(spans []span, self []time.Duration, w window) *spanStats {
	st := &spanStats{solveEpoch: map[int32]time.Duration{}}
	for i, s := range spans {
		if int(s.epoch) < w.from || int(s.epoch) >= w.to {
			continue
		}
		st.calls[s.name]++
		st.dur[s.name] += s.dur()
		st.self[s.name] += self[i]
		st.bytes[s.name] += int64(s.n)
		if s.name != spanEpoch {
			st.stageSelf += self[i]
		}
		switch {
		case s.name == spanSolve:
			st.solveMS = append(st.solveMS, ms(s.dur()))
			st.solveCells = append(st.solveCells, float64(s.n))
			st.solveEpoch[s.epoch] += s.dur()
		case s.name == spanEncodeReport, s.name == spanUplink && s.proto == mac.ProtoReport:
			st.reportBytes = append(st.reportBytes, float64(s.n))
		}
	}
	return st
}

// perLayerMetrics computes the per-layer metrics of a traced execution.
// The runtime counters, the epoch rate and the epoch time's p99 come from
// the untraced reference execution, which tracing does not disturb;
// trace_overhead compares the two.
func perLayerMetrics(wl string, o *runOut, st *spanStats, timed window, ref *runOut, refTimed window) map[string]float64 {
	T := float64(timed.len())
	perEpochMS := func(d time.Duration) float64 { return ms(d) / T }
	_, wall := timed.intervals(o.clock)
	refIV, refWall := refTimed.intervals(ref.clock)
	m := map[string]float64{
		"epochs_per_s":       float64(refTimed.len()) / refWall.Seconds(),
		"solves_per_epoch":   float64(st.calls[spanSolve]) / T,
		"solve_ms_per_epoch": perEpochMS(st.dur[spanSolve]),
		"solve_cells_mean":   mean(st.solveCells),
		"solved_epoch_share": float64(len(st.solveEpoch)) / T,
		"active_txs_mean":    mean(o.active[timed.from:timed.to]),
		"stage_sum_error":    math.Abs(float64(st.stageSelf-st.dur[spanEpoch])) / float64(st.dur[spanEpoch]),
		"trace_overhead":     (float64(refTimed.len())/refWall.Seconds())/(T/wall.Seconds()) - 1,
		"failed_share":       share(o.failures[timed.from:timed.to], o.attempts[timed.from:timed.to]),
	}
	if v, err := percentile(msSamples(refIV), 0.99); err == nil {
		m["epoch_p99_ms"] = v
	}
	putPercentiles(m, "solve", st.solveMS)
	decisions := o.decision
	if decisions == nil {
		decisions = make([]time.Duration, timed.to)
		for e := timed.from; e < timed.to; e++ {
			decisions[e] = st.solveEpoch[int32(e)]
		}
	}
	putPercentiles(m, "decision", msSamples(decisions[timed.from:timed.to]))
	if len(st.reportBytes) > 0 {
		m["report_bytes"] = mean(st.reportBytes)
	}
	if a, b := ref.clock.atOpen, ref.clock.atClose; !b.at.IsZero() && !a.at.IsZero() {
		refT := float64(refTimed.len())
		m["cpu_util"] = (b.cpu - a.cpu).Seconds() / b.at.Sub(a.at).Seconds()
		m["alloc_kb_per_epoch"] = float64(b.alloc-a.alloc) / 1024 / refT
		m["gc_per_1k_epochs"] = float64(b.gcs-a.gcs) * 1000 / refT
	}

	switch wl {
	case "room-udp", "room-optimal", "room-async":
		m["multicasts_per_epoch"] = float64(st.calls[spanMulticast]) / T
		m["multicast_bytes_per_epoch"] = float64(st.bytes[spanMulticast]) / T
		m["multicast_ms_per_epoch"] = perEpochMS(st.dur[spanMulticast])
		m["uplink_ms_per_epoch"] = perEpochMS(st.dur[spanUplink])
	}
	switch wl {
	case "room-udp", "room-optimal":
		m["unattributed_ms_per_epoch"] = perEpochMS(st.self[spanEpoch])
	case "room-async":
		var acked, sent, retx, failed, missed int
		var decided time.Duration
		for _, r := range o.rounds[timed.from:timed.to] {
			acked += r.FramesAckd
			sent += r.FramesSent
			retx += r.Retransmits
			failed += r.FramesFailed
			decided += r.DecisionTime
			if !r.ReportsOK {
				missed++
			}
		}
		m["frames_acked_per_s"] = float64(acked) / wall.Seconds()
		m["frames_sent_per_round"] = float64(sent) / T
		m["retransmits_per_round"] = float64(retx) / T
		m["frames_failed_per_round"] = float64(failed) / T
		m["reports_missed_share"] = float64(missed) / T
		m["data_phase_ms"] = perEpochMS(wall - decided)
		m["reallocate_self_ms"] = perEpochMS(decided - st.dur[spanSolve])
	case "floor-churn":
		m["report_decode_ms_per_epoch"] = perEpochMS(st.dur[spanDecodeReport])
		m["report_encode_ms_per_epoch"] = perEpochMS(st.dur[spanEncodeReport])
		m["alloc_serialize_ms"] = perEpochMS(st.dur[spanAllocFrame])
		m["move_rx_per_epoch"] = float64(st.calls[spanMoveRX]) / T
		m["move_rx_ms_per_epoch"] = perEpochMS(st.dur[spanMoveRX])
		m["step_ms_per_epoch"] = perEpochMS(st.dur[spanStep])
		m["report_build_ms_per_epoch"] = perEpochMS(st.dur[spanRecord] + st.dur[spanBuildReport])
		m["ingest_ms_per_epoch"] = perEpochMS(st.dur[spanHandleUplink])
		m["reallocate_self_ms"] = perEpochMS(st.self[spanReallocate])
		var arrivals, departures, rejections, population, clusters, maxTXs float64
		for e := timed.from; e < timed.to; e++ {
			s := o.steps[e]
			arrivals += float64(s.Arrivals)
			departures += float64(s.Departures)
			rejections += float64(s.Rejections)
			population += float64(s.Population)
			clusters += float64(o.clusters[e].k)
			maxTXs += float64(o.clusters[e].maxTXs)
		}
		m["arrivals_per_epoch"] = arrivals / T
		m["departures_per_epoch"] = departures / T
		m["rejections_per_epoch"] = rejections / T
		m["population_mean"] = population / T
		m["k_mean"] = clusters / T
		m["max_txs"] = maxTXs / T
		if clusters > 0 {
			m["dirty_share"] = float64(st.calls[spanSolve]) / clusters
		}
	}
	return m
}

func share(num, den []int) float64 {
	var a, b int
	for i := range num {
		a += num[i]
		b += den[i]
	}
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// formatValue prints a metric with enough digits to compare runs.
func formatValue(v float64) string {
	switch a := math.Abs(v); {
	case a < math.SmallestNonzeroFloat64:
		return "0"
	case a >= 1000:
		return fmt.Sprintf("%.1f", v)
	case a >= 1:
		return fmt.Sprintf("%.4f", v)
	default:
		return fmt.Sprintf("%.6g", v)
	}
}
