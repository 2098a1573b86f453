package node

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"densevlc/internal/chaos"
	"densevlc/internal/clock"
	"densevlc/internal/mobility"
	"densevlc/internal/scenario"
	"densevlc/internal/sim"
	"densevlc/internal/testutil"
	"densevlc/internal/units"
)

// TestRuntimesAgree runs the synchronous engine and the asynchronous
// runtime with their default policies on the same noise-free static
// deployment: both drive the one optical medium, so every round's system
// throughput and active-TX count must agree bit for bit, with and without
// faults, and so must the rest of the record both fill: injected events,
// dark, dead and starved counts, and whether the reports arrived.
func TestRuntimesAgree(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	const rounds = 5
	var traj []mobility.Trajectory
	for _, p := range scenario.Scenario2.RXPositions() {
		traj = append(traj, mobility.Static{Pos: p})
	}
	for _, spec := range []string{"", "2:txfail:7;3:rxblock:1:0.3"} {
		for _, budget := range []units.Watts{0.6, 1.19} {
			t.Run(fmt.Sprintf("%gW/%q", budget.W(), spec), func(t *testing.T) {
				schedule := func() *chaos.Schedule {
					s, err := chaos.Parse(spec)
					if err != nil {
						t.Fatal(err)
					}
					return s
				}
				want, err := sim.Run(sim.Config{
					Setup:        scenario.Default(),
					Trajectories: traj,
					Budget:       budget,
					Sync:         clock.MethodNLOSVLC,
					Rounds:       rounds,
					Chaos:        schedule(),
					Seed:         1,
				})
				if err != nil {
					t.Fatal(err)
				}
				got, err := RunContext(context.Background(), Config{
					Setup:        scenario.Default(),
					Trajectories: traj,
					Budget:       budget,
					Sync:         clock.MethodNLOSVLC,
					Rounds:       rounds,
					AckTimeout:   100 * time.Millisecond,
					Chaos:        schedule(),
					Seed:         1,
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Rounds) != rounds || len(want.Rounds) != rounds {
					t.Fatalf("node ran %d rounds, sim %d, want %d", len(got.Rounds), len(want.Rounds), rounds)
				}
				for r := 0; r < rounds; r++ {
					s, a := want.Rounds[r], got.Rounds[r]
					if !a.ReportsOK {
						t.Fatalf("round %d: node missed reports", r)
					}
					if math.Float64bits(float64(a.SystemThroughput)) != math.Float64bits(float64(s.Eval.SumThroughput)) {
						t.Errorf("round %d: node throughput %v, sim %v", r, a.SystemThroughput, s.Eval.SumThroughput)
					}
					if a.ActiveTXs != s.ActiveTXs {
						t.Errorf("round %d: node %d active TXs, sim %d", r, a.ActiveTXs, s.ActiveTXs)
					}
					if a.ChaosEvents != s.ChaosEvents {
						t.Errorf("round %d: node %d chaos events, sim %d", r, a.ChaosEvents, s.ChaosEvents)
					}
					if !slices.Equal(a.FailedTXs, s.FailedTXs) {
						t.Errorf("round %d: node dark TXs %v, sim %v", r, a.FailedTXs, s.FailedTXs)
					}
					if a.StarvedRXs != s.StarvedRXs {
						t.Errorf("round %d: node %d starved RXs, sim %d", r, a.StarvedRXs, s.StarvedRXs)
					}
					if a.DeadTXs != s.DeadTXs {
						t.Errorf("round %d: node %d dead TXs, sim %d", r, a.DeadTXs, s.DeadTXs)
					}
					if a.ReportsOK != s.ReportsOK {
						t.Errorf("round %d: node reports ok %v, sim %v", r, a.ReportsOK, s.ReportsOK)
					}
				}
			})
		}
	}
}

// TestRuntimesAgreeUnderChurn runs both runtimes through the same churning
// workload with noise-free measurements. Both step one engine seeded the
// same way and score the plan the controller commanded, so every round's
// population step, system throughput and active-TX count must agree bit
// for bit, and a second node run of the same seed must repeat the first.
func TestRuntimesAgreeUnderChurn(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	const rounds = 8
	for _, seed := range []int64{1, 3, 8} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			want, err := sim.Run(sim.Config{
				Setup:         scenario.Default(),
				Workload:      churnSpec(),
				Budget:        1.19,
				Sync:          clock.MethodNLOSVLC,
				Rounds:        rounds,
				RoundDuration: 1,
				Seed:          seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			run := func() *Result {
				res, err := RunContext(context.Background(), churnConfig(churnSpec(), rounds, seed))
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Rounds) != rounds {
					t.Fatalf("node ran %d rounds, want %d", len(res.Rounds), rounds)
				}
				return res
			}
			first, again := run(), run()
			for r := 0; r < rounds; r++ {
				s := want.Rounds[r]
				for k, got := range []*Result{first, again} {
					a := got.Rounds[r]
					if !a.ReportsOK {
						t.Fatalf("run %d round %d: node missed reports", k, r)
					}
					if a.Churn.Step != s.Churn.Step {
						t.Errorf("run %d round %d: node step %+v, sim %+v", k, r, a.Churn.Step, s.Churn.Step)
					}
					if math.Float64bits(float64(a.SystemThroughput)) != math.Float64bits(float64(s.Eval.SumThroughput)) {
						t.Errorf("run %d round %d: node throughput %v, sim %v", k, r, a.SystemThroughput, s.Eval.SumThroughput)
					}
					if a.ActiveTXs != s.ActiveTXs {
						t.Errorf("run %d round %d: node %d active TXs, sim %d", k, r, a.ActiveTXs, s.ActiveTXs)
					}
				}
			}
		})
	}
}
