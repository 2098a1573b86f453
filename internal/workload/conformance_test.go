package workload_test

import (
	"testing"

	"densevlc/internal/alloc"
	"densevlc/internal/cluster"
	"densevlc/internal/frame"
	"densevlc/internal/mac"
	"densevlc/internal/scenario"
	"densevlc/internal/sim"
	"densevlc/internal/transport"
	"densevlc/internal/units"
	"densevlc/internal/workload"
)

// churnRun executes one seeded end-to-end churn run through the full
// synchronous system (real MAC frames over the in-memory transport). It
// also returns every round's allocation frame as the transmitters decode
// it.
func churnRun(t *testing.T, seed int64, trigger mac.Trigger) (*sim.Result, workload.Spec, units.Watts, []mac.Allocation) {
	t.Helper()
	sp := workload.DefaultSpec()
	sp.ArrivalRate = 1.5
	sp.MeanDwell = 6
	sp.Fleet = 6
	sp.MinWattsPerUser = 0.15
	budget := units.Watts(1.19)
	tap := &allocTap{Network: transport.NewMemNetwork(), t: t}
	res, err := sim.Run(sim.Config{
		Setup:         scenario.Default(),
		Workload:      &sp,
		Policy:        alloc.Heuristic{Kappa: 1.3, AllowPartial: true},
		Budget:        budget,
		Rounds:        25,
		RoundDuration: 1.0,
		Trigger:       trigger,
		Network:       tap,
		Seed:          seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tap.plans) != len(res.Rounds) {
		t.Fatalf("%d allocation frames in %d rounds", len(tap.plans), len(res.Rounds))
	}
	return res, sp, budget, tap.plans
}

// allocTap keeps every allocation frame the controller multicasts, decoded
// as the transmitters decode it.
type allocTap struct {
	transport.Network
	t     testing.TB
	plans []mac.Allocation
}

func (a *allocTap) Controller() transport.ControllerLink {
	return allocTapLink{ControllerLink: a.Network.Controller(), tap: a}
}

type allocTapLink struct {
	transport.ControllerLink
	tap *allocTap
}

func (l allocTapLink) Multicast(data []byte) error {
	d, _, err := frame.DecodeDownlink(data)
	if err == nil && d.MAC.Protocol == mac.ProtoAllocation {
		var a mac.Allocation
		if a, err = mac.DecodeAllocation(d.MAC.Payload); err == nil {
			l.tap.plans = append(l.tap.plans, a)
		}
	}
	if err != nil {
		l.tap.t.Errorf("multicast does not decode: %v", err)
	}
	return l.ControllerLink.Multicast(data)
}

// TestChurnBudgetConserved: across arrivals, departures and handovers, the
// consumed communication power of every round's commanded allocation stays
// within the configured budget. The solver conserves to 1e-9; what the
// transmitters execute is the wire plan, whose swings are quantized to
// integer milliamps (mac.Allocation.SwingMilliAmps), so the commanded power
// may overshoot by the round-up — well under 1 mW here, and far below one
// user's 0.15 W admission share, which is the granularity that matters.
func TestChurnBudgetConserved(t *testing.T) {
	const quantSlack = 1e-3 // W; ≤0.5 mA round-up per wire command
	for _, seed := range []int64{1, 2, 3} {
		for _, trigger := range []mac.Trigger{{}, {RelDelta: 0.05, MaxStaleEpochs: 8}} {
			res, _, budget, _ := churnRun(t, seed, trigger)
			for _, r := range res.Rounds {
				if r.Eval.CommPower.W() > budget.W()+quantSlack {
					t.Errorf("seed %d trigger %+v round %d: power %.6f W exceeds budget %.2f W beyond quantization slack",
						seed, trigger, r.Round, r.Eval.CommPower.W(), budget.W())
				}
			}
		}
	}
}

// TestChurnDepartedUsersHoldNoSwing: a freed slot's photodiode is dark and
// the allocator must withdraw its swing. The engine masks the slot's
// channel column the same epoch the user departs, so the invariant is
// asserted for every round and every inactive slot — stronger than the
// required "one epoch after leaving", and it holds on the trigger path too
// (a column collapsing to zero is always an over-threshold change). The plan checked is the allocation frame as the
// transmitters decode it.
func TestChurnDepartedUsersHoldNoSwing(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, trigger := range []mac.Trigger{{}, {RelDelta: 0.05, MaxStaleEpochs: 8}} {
			res, _, _, plans := churnRun(t, seed, trigger)
			departures := 0
			for k, r := range res.Rounds {
				departures += r.Churn.Step.Departures
				for _, c := range plans[k].Commands {
					if c.RX >= 0 && !r.Churn.Active[c.RX] && c.Swing() != 0 {
						t.Errorf("seed %d trigger %+v round %d: free slot %d holds swing %.3g from TX %d",
							seed, trigger, r.Round, c.RX, c.Swing().A(), c.TX)
					}
				}
			}
			if departures == 0 {
				t.Fatalf("seed %d: churn trace produced no departures; the invariant was never exercised", seed)
			}
		}
	}
}

// TestChurnAdmittedUsersHaveServingSets: every admitted user's serving set
// is non-empty at cluster formation level, in every round of every seeded
// trace. In-room receivers hear every LOS transmitter, so formation always
// finds positive-gain servers for a live photodiode; the flip side — free
// slots form empty serving sets — is asserted too.
func TestChurnAdmittedUsersHaveServingSets(t *testing.T) {
	set := scenario.Default()
	for _, seed := range []int64{1, 2, 3} {
		res, _, _, _ := churnRun(t, seed, mac.Trigger{})
		admittedRounds := 0
		for _, r := range res.Rounds {
			env := set.Env(r.RXPositions, nil)
			for i, active := range r.Churn.Active {
				if !active {
					for j := 0; j < env.H.N; j++ {
						env.H.H[j][i] = 0
					}
				}
			}
			clus, err := cluster.Form(env.H, cluster.Spec{Threshold: 0.6})
			if err != nil {
				t.Fatal(err)
			}
			for i, active := range r.Churn.Active {
				ci := clus.RXOf[i]
				owned := clus.Clusters[ci].TXs
				positive := 0
				for _, tx := range owned {
					if env.H.Gain(tx, i) > 0 {
						positive++
					}
				}
				if active {
					admittedRounds++
					if len(owned) == 0 || positive == 0 {
						t.Errorf("seed %d round %d: admitted user in slot %d has no serving transmitters (cluster %d owns %d TXs, %d with gain)",
							seed, r.Round, i, ci, len(owned), positive)
					}
				} else if positive != 0 {
					t.Errorf("seed %d round %d: free slot %d hears %d transmitters; its column should be dark",
						seed, r.Round, i, positive)
				}
			}
		}
		if admittedRounds == 0 {
			t.Fatalf("seed %d: no admitted user-rounds; the invariant was never exercised", seed)
		}
	}
}

// TestChurnRunDeterministic: the full system run — churn trace and every
// round metric — is byte-reproducible for a given seed.
func TestChurnRunDeterministic(t *testing.T) {
	a, _, _, _ := churnRun(t, 7, mac.Trigger{RelDelta: 0.05, MaxStaleEpochs: 8})
	b, _, _, _ := churnRun(t, 7, mac.Trigger{RelDelta: 0.05, MaxStaleEpochs: 8})
	if string(a.WorkloadTrace) != string(b.WorkloadTrace) {
		t.Fatalf("churn traces diverged:\n%s\nvs\n%s", a.WorkloadTrace, b.WorkloadTrace)
	}
	if len(a.WorkloadTrace) == 0 {
		t.Fatal("empty churn trace")
	}
	for k := range a.Rounds {
		ra, rb := a.Rounds[k], b.Rounds[k]
		if ra.Eval.SumThroughput != rb.Eval.SumThroughput || ra.Eval.CommPower != rb.Eval.CommPower {
			t.Fatalf("round %d metrics diverged", k)
		}
		if ra.Churn.Step != rb.Churn.Step || ra.Churn.Handover != rb.Churn.Handover {
			t.Fatalf("round %d churn metrics diverged", k)
		}
	}
}
