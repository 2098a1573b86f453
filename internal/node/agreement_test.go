package node

import (
	"context"
	"fmt"
	"math"
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
// faults.
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
				}
			})
		}
	}
}
