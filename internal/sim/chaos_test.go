package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"densevlc/internal/alloc"
	"densevlc/internal/chaos"
	"densevlc/internal/scenario"
	"densevlc/internal/workload"
)

func chaosConfig(schedule *chaos.Schedule) Config {
	return Config{
		Setup:            scenario.Default(),
		Trajectories:     staticTrajectories(),
		Budget:           1.19,
		Rounds:           6,
		MeasurementNoise: 0.02,
		Chaos:            schedule,
		Seed:             3,
	}
}

// TestChaosBlackoutDegradesGracefully replays the tx-blackout preset in the
// synchronous engine: every anchor transmitter dies at t=2 s and the system
// must keep serving all four receivers on the survivors.
func TestChaosBlackoutDegradesGracefully(t *testing.T) {
	schedule, ok := scenario.ChaosPreset("tx-blackout")
	if !ok {
		t.Fatal("tx-blackout preset missing")
	}
	res, err := Run(chaosConfig(schedule))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rounds {
		if r.Round >= 2 {
			if !reflect.DeepEqual(r.FailedTXs, scenario.AnchorTXs) {
				t.Errorf("round %d: dark TXs %v, want %v", r.Round, r.FailedTXs, scenario.AnchorTXs)
			}
		} else if len(r.FailedTXs) != 0 {
			t.Errorf("round %d: dark TXs %v before the blackout", r.Round, r.FailedTXs)
		}
		// Zero starvation: every receiver keeps positive throughput.
		for i, tp := range r.Eval.Throughput {
			if tp <= 0 {
				t.Errorf("round %d: RX%d starved", r.Round, i+1)
			}
		}
	}
	// Detection, as node.RunContext records it: none dead before the
	// blackout, every anchor dead by the final round.
	if got := res.Rounds[1].DeadTXs; got != 0 {
		t.Errorf("pre-failure round already had %d dead TXs", got)
	}
	if got := res.Rounds[len(res.Rounds)-1].DeadTXs; got != len(scenario.AnchorTXs) {
		t.Errorf("final round classifies %d TXs dead, want %d", got, len(scenario.AnchorTXs))
	}
	if res.Trace.Len() != len(scenario.AnchorTXs) {
		t.Errorf("trace has %d events, want %d", res.Trace.Len(), len(scenario.AnchorTXs))
	}
}

// TestChaosRunsByteIdentical is the synchronous engine's reproducibility
// contract: identical seed + schedule must give byte-identical traces and
// bit-identical metrics, run after run.
func TestChaosRunsByteIdentical(t *testing.T) {
	schedule, err := chaos.Parse("1:txfail:7;2:rxblock:1:0.1;3:clockstep:9:2e-6;4:txrecover:7;4:rxunblock:1")
	if err != nil {
		t.Fatal(err)
	}
	export := func() ([]byte, string) {
		res, err := Run(chaosConfig(schedule))
		if err != nil {
			t.Fatal(err)
		}
		var metrics bytes.Buffer
		for _, r := range res.Rounds {
			fmt.Fprintf(&metrics, "%d %x %x %v\n", r.Round, r.Eval.SumThroughput.Bps(), r.Eval.CommPower.W(), r.FailedTXs)
		}
		return res.Trace.Bytes(), metrics.String()
	}
	trace1, metrics1 := export()
	trace2, metrics2 := export()
	if !bytes.Equal(trace1, trace2) {
		t.Errorf("traces diverged:\n%s\nvs\n%s", trace1, trace2)
	}
	if metrics1 != metrics2 {
		t.Errorf("hex-float metrics diverged:\n%s\nvs\n%s", metrics1, metrics2)
	}
	if len(trace1) == 0 {
		t.Error("no events applied")
	}
}

// TestChaosRXBlockageAndRecovery: shadowing one receiver must cut its
// throughput while the blockage holds and restore it once cleared.
func TestChaosRXBlockageAndRecovery(t *testing.T) {
	schedule := chaos.NewSchedule().RXBlock(2, 0, 0.05).RXUnblock(4, 0)
	res, err := Run(chaosConfig(schedule))
	if err != nil {
		t.Fatal(err)
	}
	clear := res.Rounds[1].Eval.Throughput[0].Bps()
	shadow := res.Rounds[3].Eval.Throughput[0].Bps()
	restored := res.Rounds[5].Eval.Throughput[0].Bps()
	if shadow >= clear/2 {
		t.Errorf("95%% blockage barely moved RX1: %.0f -> %.0f bps", clear, shadow)
	}
	if restored < clear/2 {
		t.Errorf("clearing the blockage did not restore RX1: %.0f bps vs %.0f before", restored, clear)
	}
}

// TestChaosFullBlockageUnderOptimal blocks one receiver completely, so no
// transmitter reaches it for three rounds. Optimal refuses an environment
// with an unservable receiver, but the controller solves per cooperation
// cluster and the dark receiver's cluster owns no transmitter: the run must
// go on serving the others and serve the blocked one again once cleared.
func TestChaosFullBlockageUnderOptimal(t *testing.T) {
	cfg := chaosConfig(chaos.NewSchedule().RXBlock(2, 0, 0).RXUnblock(5, 0))
	cfg.Rounds = 8
	cfg.Policy = alloc.Optimal{Workers: 1}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("full blockage ended the run: %v", err)
	}
	if len(res.Rounds) != cfg.Rounds {
		t.Fatalf("%d rounds, want %d", len(res.Rounds), cfg.Rounds)
	}
	for _, r := range res.Rounds {
		blocked := r.Round >= 2 && r.Round < 5
		for i, tp := range r.Eval.Throughput {
			switch {
			case i == 0 && blocked && tp != 0:
				t.Errorf("round %d: blocked RX1 gets %v", r.Round, tp)
			case !(i == 0 && blocked) && !(tp > 0):
				t.Errorf("round %d: RX%d starved", r.Round, i+1)
			}
		}
	}
}

// TestChaosFailedTXNeverAllocated: once a transmitter is dark its zero-gain
// row can earn no swing, so it must vanish from the commanded allocation in
// the very epoch it fails. The plan checked is the allocation frame as the
// transmitters decode it.
func TestChaosFailedTXNeverAllocated(t *testing.T) {
	schedule := chaos.NewSchedule().TXFail(2, 7).TXFail(2, 9)
	cfg := chaosConfig(schedule)
	tap := newWireTap(t)
	cfg.Network = tap
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tap.plans) != len(res.Rounds) {
		t.Fatalf("%d allocation frames in %d rounds", len(tap.plans), len(res.Rounds))
	}
	for _, r := range res.Rounds {
		if r.Round < 2 {
			continue
		}
		for _, c := range tap.plans[r.Round].Commands {
			if (c.TX == 7 || c.TX == 9) && c.RX >= 0 && c.Swing() > 0 {
				t.Errorf("round %d: dark TX %d holds swing for RX %d", r.Round, c.TX, c.RX)
			}
		}
	}
}

// TestRunCountsStarvedRXs runs a churn workload with one slot opaquely
// blocked from round 1. Every round, the receivers the plan leaves without
// a serving transmitter must be exactly the vacant slots plus the blocked
// one, the count node.RunContext reports for the same deployment
// (TestChurnComposesWithChaos).
func TestRunCountsStarvedRXs(t *testing.T) {
	const blocked = 1
	sp := workload.DefaultSpec()
	sp.ArrivalRate, sp.MeanDwell, sp.Fleet = 2, 3, 4
	res, err := Run(Config{
		Setup:         scenario.Default(),
		Workload:      &sp,
		Budget:        1.19,
		Rounds:        8,
		RoundDuration: 1,
		Chaos:         chaos.NewSchedule().RXBlock(1, blocked, 0),
		Seed:          4,
	})
	if err != nil {
		t.Fatal(err)
	}
	vacant, dark := 0, 0
	for r, rm := range res.Rounds {
		want := 0
		for i, on := range rm.Churn.Active {
			switch {
			case !on:
				want++
				vacant++
			case i == blocked && r >= 1:
				want++
				dark++
			}
		}
		if rm.StarvedRXs != want {
			t.Errorf("round %d: %d receivers unserved, want %d (occupancy %v, slot %d blocked from round 1)",
				r, rm.StarvedRXs, want, rm.Churn.Active, blocked)
		}
	}
	if vacant == 0 || dark == 0 {
		t.Fatalf("the run never held a vacant slot (%d) or an occupied blocked one (%d)", vacant, dark)
	}
}
