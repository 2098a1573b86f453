package main

import (
	"testing"

	"densevlc/internal/alloc"
	"densevlc/internal/node"
	"densevlc/internal/sim"
	"densevlc/internal/units"
	"densevlc/internal/workload"
)

func TestFormatRoundMarksVacantSlots(t *testing.T) {
	r := sim.RoundMetrics{
		Round:     2,
		Time:      2,
		ActiveTXs: 16,
		Eval: alloc.Evaluation{
			Throughput:    []units.BitsPerSecond{3.5e6, 0},
			SumThroughput: 3.5e6,
			CommPower:     1.19,
		},
		PER:   []float64{0.05, 1},
		Churn: &sim.ChurnMetrics{Active: []bool{true, false}},
	}
	const prefix = "round  2  t=  2.0s  active TXs 16  power 1.19 W  system   3.50 Mb/s  per-RX  3.50"
	for _, c := range []struct {
		name  string
		churn *sim.ChurnMetrics
		want  string
	}{
		{"vacant slot", r.Churn, prefix + "     -  PER    5%     -  pop 0 (+0/-0, 0 rejected) handovers 0"},
		// Without churn every receiver is a user: a silent one shows its
		// zero throughput and total loss.
		{"no churn", nil, prefix + "  0.00  PER    5%  100%"},
	} {
		r.Churn = c.churn
		if got := formatRound(r); got != c.want {
			t.Errorf("%s:\n got %q\nwant %q", c.name, got, c.want)
		}
	}
}

// TestAsyncRoundLine pins the -async line: the shared round line, with its
// fault and churn suffixes, then the reports flag and the ARQ counters.
func TestAsyncRoundLine(t *testing.T) {
	r := node.RoundStats{
		RoundMetrics: sim.RoundMetrics{
			Round:     4,
			Time:      4,
			ReportsOK: true,
			ActiveTXs: 12,
			Eval: alloc.Evaluation{
				Throughput:    []units.BitsPerSecond{2e6, 0},
				SumThroughput: 2e6,
				CommPower:     0.6,
			},
			FailedTXs:  []int{7},
			DeadTXs:    1,
			StarvedRXs: 1,
			Churn: &sim.ChurnMetrics{
				Step:     workload.StepStats{Population: 1, Arrivals: 1, Departures: 2, Rejections: 3},
				Handover: workload.HandoverStats{Handovers: 1},
				Active:   []bool{true, false},
			},
		},
		FramesSent: 5, FramesAckd: 3, Retransmits: 1, FramesFailed: 1,
	}
	const want = "round  4  t=  4.0s  active TXs 12  power 0.60 W  system   2.00 Mb/s  per-RX  2.00     -" +
		"  dark TXs [7]  dead TXs 1  starved RXs 1  pop 1 (+1/-2, 3 rejected) handovers 1" +
		"  reports ok true   sent  5  delivered  3  retried 1  failed 1"
	if got := formatRound(r.RoundMetrics) + asyncColumns(r); got != want {
		t.Errorf("\n got %q\nwant %q", got, want)
	}
}
