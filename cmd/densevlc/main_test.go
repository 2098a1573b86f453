package main

import (
	"testing"

	"densevlc/internal/alloc"
	"densevlc/internal/sim"
	"densevlc/internal/units"
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
		{"vacant slot", r.Churn, prefix + "     -  PER    5%     -  pop 0 (+0/-0) handovers 0"},
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
