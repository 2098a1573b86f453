// Command densevlc runs a live DenseVLC deployment: a controller, 36
// transmitter nodes and 4 receiver nodes exchanging real Table-3 frames
// over UDP sockets on the loopback interface, with receivers moving through
// the room and the controller re-aiming the beamspots every round.
//
// Usage:
//
//	densevlc [-rounds N] [-budget W] [-kappa K] [-speed M/S] [-udp] [-waveform]
//	         [-chaos PRESET|SPEC] [-failures K] [-chaos-seed N]
//	         [-trigger-delta D] [-trigger-stale K]
//	         [-churn] [-arrival-rate L] [-fleet M]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"densevlc/internal/alloc"
	"densevlc/internal/chaos"
	"densevlc/internal/clock"
	"densevlc/internal/mac"
	"densevlc/internal/mobility"
	"densevlc/internal/node"
	"densevlc/internal/scenario"
	"densevlc/internal/sim"
	"densevlc/internal/stats"
	"densevlc/internal/transport"
	"densevlc/internal/units"
	"densevlc/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("densevlc: ")

	rounds := flag.Int("rounds", 10, "measure→decide→transmit rounds")
	budget := flag.Float64("budget", 1.19, "communication power budget P_C,tot in watts")
	kappa := flag.Float64("kappa", 1.3, "SJR exponent of the ranking heuristic")
	speed := flag.Float64("speed", 0.25, "receiver speed in m/s (random-waypoint motion)")
	useUDP := flag.Bool("udp", true, "carry the control plane over UDP loopback sockets")
	waveform := flag.Bool("waveform", false, "run the sample-level PHY data phase (slow)")
	async := flag.Bool("async", false, "run every node as its own goroutine with timeouts (event-driven, like the distributed prototype)")
	triggerDelta := flag.Float64("trigger-delta", 0, "event-driven re-allocation: skip the solve when no reported gain moved more than this fraction of its receiver's peak since the last plan (0 = re-solve every round)")
	triggerStale := flag.Int("trigger-stale", 16, "max consecutive trigger-skipped rounds before a forced full re-solve (0 = no bound)")
	churn := flag.Bool("churn", false, "drive the receiver fleet with a churn workload: Poisson arrivals, exponential dwell, waypoint mobility and per-user traffic instead of the fixed 4-receiver fleet")
	arrivalRate := flag.Float64("arrival-rate", 0.5, "user arrivals per second (with -churn)")
	fleet := flag.Int("fleet", 8, "receiver tenancy slots (with -churn)")
	seed := flag.Int64("seed", 1, "random seed")
	chaosArg := flag.String("chaos", "", "fault schedule: a preset ("+
		strings.Join(scenario.ChaosPresetNames(), ", ")+") or a raw spec like \"2:txfail:7;4:rxblock:0:0.1\"")
	failures := flag.Int("failures", 0, "hard-fail this many random transmitters mid-run (adds to -chaos)")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed for the -failures random draw")
	flag.Parse()

	setup := scenario.Default()
	rng := stats.NewRand(*seed)

	schedule, err := scenario.ParseChaos(*chaosArg)
	if err != nil {
		log.Fatal(err)
	}
	if *failures > 0 {
		at := units.Seconds(float64(*rounds) / 2)
		killed, chosen := chaos.RandomTXFailures(stats.NewRand(*chaosSeed), at, setup.Grid.N(), *failures)
		if schedule == nil {
			schedule = killed
		} else {
			for _, e := range killed.Events() {
				schedule.Add(e)
			}
		}
		fmt.Printf("chaos: failing TXs %v at t=%gs\n", chosen, at.S())
	}
	if schedule.Len() > 0 {
		fmt.Printf("chaos schedule: %s\n", schedule)
	}

	// Receivers start at the scenario-2 positions and then roam the area
	// of interest on their gantries. Under -churn the fleet is tenancy
	// slots instead: the workload engine owns arrivals, dwell and motion.
	var traj []mobility.Trajectory
	var churnSpec workload.Spec
	numRX := 0
	if *churn {
		churnSpec = workload.DefaultSpec()
		churnSpec.ArrivalRate = *arrivalRate
		churnSpec.Fleet = *fleet
		churnSpec.Speed = units.MetersPerSecond(*speed)
		if err := churnSpec.Validate(); err != nil {
			log.Fatal(err)
		}
		numRX = *fleet
	} else {
		if err := mobility.CheckSpeed(units.MetersPerSecond(*speed)); err != nil {
			log.Fatal(err)
		}
		for range scenario.Scenario2.RXPositions() {
			traj = append(traj, mobility.NewRandomWaypoint(
				stats.SplitRand(rng), 0.4, 0.4, 2.6, 2.6, 0, units.MetersPerSecond(*speed)))
		}
		numRX = len(traj)
	}

	policy := alloc.Heuristic{Kappa: *kappa, AllowPartial: true}
	if err := policy.Validate(); err != nil {
		log.Fatal(err)
	}
	var network transport.Network
	if *useUDP {
		udp, err := transport.NewUDPNetwork()
		if err != nil {
			log.Fatalf("udp network: %v", err)
		}
		fmt.Printf("control plane: UDP on %v\n", udp.ControllerAddr())
		network = udp
	} else {
		fmt.Println("control plane: in-memory bus")
	}

	if *churn {
		fmt.Printf("deployment: %d TXs, %d tenancy slots, budget %.2f W, policy %s, churn %s\n\n",
			setup.Grid.N(), numRX, *budget, policy.Name(), churnSpec.String())
	} else {
		fmt.Printf("deployment: %d TXs, %d RXs, budget %.2f W, policy %s\n\n",
			setup.Grid.N(), numRX, *budget, policy.Name())
	}

	trigger := mac.Trigger{RelDelta: *triggerDelta, MaxStaleEpochs: *triggerStale}

	if *async {
		cfg := node.Config{
			Setup:            setup,
			Trajectories:     traj,
			Policy:           policy,
			Budget:           units.Watts(*budget),
			Sync:             clock.MethodNLOSVLC,
			Network:          network,
			Rounds:           *rounds,
			RoundDuration:    1.0,
			FramesPerRX:      4,
			MeasurementNoise: 0.02,
			Seed:             *seed,
			Timeout:          time.Duration(*rounds+5) * 10 * time.Second,
			Chaos:            schedule,
			Trigger:          trigger,
		}
		if *churn {
			// Every tenancy slot is a receiver whose photodiode lights up
			// when a user arrives; FramesPerRX caps each user's
			// per-round traffic demand.
			cfg.Workload = &churnSpec
			cfg.FramesPerRX = 8
		}
		runAsync(cfg)
		return
	}

	cfg := sim.Config{
		Setup:            setup,
		Trajectories:     traj,
		Policy:           policy,
		Budget:           units.Watts(*budget),
		Sync:             clock.MethodNLOSVLC,
		Rounds:           *rounds,
		RoundDuration:    1.0,
		MeasurementNoise: 0.02,
		WaveformPHY:      *waveform,
		FramesPerRound:   10,
		Network:          network,
		Chaos:            schedule,
		Seed:             *seed,
		Trigger:          trigger,
	}
	if *churn {
		cfg.Workload = &churnSpec
	}

	res, err := sim.Run(cfg)
	if err != nil {
		log.Fatalf("run: %v", err)
	}

	for _, r := range res.Rounds {
		fmt.Println(formatRound(r))
	}
	printTrace(res.Trace)
	fmt.Printf("\nmean system throughput %.2f Mb/s at %.2f W communication power\n",
		res.MeanSystemThroughput.Bps()/1e6, res.MeanCommPower)
	os.Exit(0)
}

// formatRound renders one round of either runtime as a line: the plan's
// power and throughput, then per receiver its throughput and PER. A tenancy
// slot that hosts no user this round shows "-" in both columns rather than
// a receiver that loses every frame. Dark, dead and starved transmitter and
// receiver counts and the churn step follow when there are any.
func formatRound(r sim.RoundMetrics) string {
	vacant := func(rx int) bool { return r.Churn != nil && !r.Churn.Active[rx] }
	var b strings.Builder
	fmt.Fprintf(&b, "round %2d  t=%5.1fs  active TXs %2d  power %.2f W  system %6.2f Mb/s  per-RX",
		r.Round, r.Time.S(), r.ActiveTXs, r.Eval.CommPower, r.Eval.SumThroughput.Bps()/1e6)
	for rx, tp := range r.Eval.Throughput {
		if vacant(rx) {
			fmt.Fprintf(&b, " %5s", "-")
			continue
		}
		fmt.Fprintf(&b, " %5.2f", tp.Bps()/1e6)
	}
	if r.PER != nil {
		b.WriteString("  PER")
		for rx, p := range r.PER {
			if vacant(rx) {
				fmt.Fprintf(&b, " %5s", "-")
				continue
			}
			fmt.Fprintf(&b, " %4.0f%%", 100*p)
		}
	}
	if len(r.FailedTXs) > 0 {
		fmt.Fprintf(&b, "  dark TXs %v", r.FailedTXs)
	}
	if r.DeadTXs > 0 || r.StarvedRXs > 0 {
		fmt.Fprintf(&b, "  dead TXs %d  starved RXs %d", r.DeadTXs, r.StarvedRXs)
	}
	if r.Churn != nil {
		st := r.Churn.Step
		fmt.Fprintf(&b, "  pop %d (+%d/-%d, %d rejected) handovers %d",
			st.Population, st.Arrivals, st.Departures, st.Rejections, r.Churn.Handover.Handovers)
	}
	return b.String()
}

// asyncColumns renders what an asynchronous round adds to its formatRound
// line: whether every report beat the deadline, and the ARQ counters.
func asyncColumns(r node.RoundStats) string {
	return fmt.Sprintf("  reports ok %-5v  sent %2d  delivered %2d  retried %d  failed %d",
		r.ReportsOK, r.FramesSent, r.FramesAckd, r.Retransmits, r.FramesFailed)
}

// printTrace reports the applied chaos events, if any.
func printTrace(tr *chaos.Trace) {
	if tr == nil || tr.Len() == 0 {
		return
	}
	fmt.Printf("\nchaos trace (%d events applied):\n%s", tr.Len(), tr.Bytes())
}

// runAsync executes the event-driven runtime: every transmitter and
// receiver is its own goroutine reacting to the frames it receives, the
// controller works with timeouts — the distributed prototype's shape.
func runAsync(cfg node.Config) {
	res, err := node.RunContext(context.Background(), cfg)
	if err != nil {
		log.Fatalf("async run: %v", err)
	}
	for _, r := range res.Rounds {
		fmt.Println(formatRound(r.RoundMetrics) + asyncColumns(r))
	}
	printTrace(res.Trace)
	fmt.Printf("\n%d application payloads delivered end to end\n", res.Delivered)
	if len(res.WorkloadTrace) > 0 {
		fmt.Printf("churn trace:\n%s", res.WorkloadTrace)
	}
}
