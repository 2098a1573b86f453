package sim

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"densevlc/internal/alloc"
	"densevlc/internal/channel"
	"densevlc/internal/clock"
	"densevlc/internal/frame"
	"densevlc/internal/geom"
	"densevlc/internal/mac"
	"densevlc/internal/mobility"
	"densevlc/internal/scenario"
	"densevlc/internal/transport"
	"densevlc/internal/units"
	"densevlc/internal/workload"
)

func staticTrajectories() []mobility.Trajectory {
	var out []mobility.Trajectory
	for _, p := range scenario.Scenario2.RXPositions() {
		out = append(out, mobility.Static{Pos: p})
	}
	return out
}

func TestRunStaticScenario(t *testing.T) {
	res, err := Run(Config{
		Setup:            scenario.Default(),
		Trajectories:     staticTrajectories(),
		Policy:           alloc.Heuristic{Kappa: 1.3},
		Budget:           0.6,
		Rounds:           3,
		MeasurementNoise: 0.02,
		Seed:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 3 {
		t.Fatalf("%d rounds", len(res.Rounds))
	}
	for _, r := range res.Rounds {
		if r.ActiveTXs == 0 {
			t.Errorf("round %d: no active TXs", r.Round)
		}
		if r.Eval.CommPower > 0.6+1e-6 {
			t.Errorf("round %d: power %v over budget", r.Round, r.Eval.CommPower)
		}
		for i, tp := range r.Eval.Throughput {
			if tp <= 0 {
				t.Errorf("round %d: RX%d starved", r.Round, i+1)
			}
		}
	}
	if res.MeanSystemThroughput < 1e6 {
		t.Errorf("mean system throughput = %v, implausibly low", res.MeanSystemThroughput)
	}
	if res.MeanCommPower <= 0 || res.MeanCommPower > 0.6 {
		t.Errorf("mean power = %v", res.MeanCommPower)
	}
	// The fast path populates the analytic PER and goodput per receiver.
	for _, r := range res.Rounds {
		if len(r.PER) != 4 || len(r.Goodput) != 4 {
			t.Fatalf("fast-path PER/goodput missing: %v / %v", r.PER, r.Goodput)
		}
		for i, per := range r.PER {
			if per < 0 || per > 1 {
				t.Errorf("RX%d analytic PER = %v", i+1, per)
			}
			if per < 0.99 && r.Goodput[i] <= 0 {
				t.Errorf("RX%d goodput missing at PER %v", i+1, per)
			}
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := Config{
		Setup:            scenario.Default(),
		Trajectories:     staticTrajectories(),
		Budget:           0.3,
		Rounds:           2,
		MeasurementNoise: 0.02,
		Seed:             42,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanSystemThroughput != b.MeanSystemThroughput {
		t.Error("same seed should reproduce the run")
	}
	// The decision's wall-clock cost is the only field of the record that
	// may differ.
	for _, res := range []*Result{a, b} {
		for k := range res.Rounds {
			res.Rounds[k].DecisionTime = 0
		}
	}
	if !reflect.DeepEqual(a.Rounds, b.Rounds) {
		t.Error("same seed gave different round records")
	}
}

// failingPolicy fails its solve on call failAt; the default formation
// solves once per round, so that is round failAt.
type failingPolicy struct {
	alloc.Policy
	failAt, calls int
}

func (p *failingPolicy) Allocate(env *alloc.Env, budget units.Watts) (channel.Swings, error) {
	p.calls++
	if p.calls == p.failAt+1 {
		return nil, errors.New("injected solver failure")
	}
	return p.Policy.Allocate(env, budget)
}

// TestRunMeansCoverRoundsThatRan: a run that fails part way returns the
// rounds it completed and their means, not their sums.
func TestRunMeansCoverRoundsThatRan(t *testing.T) {
	const failAt = 3
	res, err := Run(Config{
		Setup:        scenario.Default(),
		Trajectories: staticTrajectories(),
		Policy:       &failingPolicy{Policy: alloc.Heuristic{Kappa: 1.3, AllowPartial: true}, failAt: failAt},
		Budget:       0.6,
		Rounds:       6,
		Seed:         1,
	})
	if err == nil {
		t.Fatal("the injected solver failure did not end the run")
	}
	if res == nil {
		t.Fatal("the failed run returned no result")
	}
	if len(res.Rounds) != failAt {
		t.Fatalf("the failed run kept %d rounds, want %d", len(res.Rounds), failAt)
	}
	var tput units.BitsPerSecond
	var power units.Watts
	for _, r := range res.Rounds {
		tput += r.Eval.SumThroughput
		power += r.Eval.CommPower
	}
	if want := tput / failAt; res.MeanSystemThroughput != want {
		t.Errorf("mean throughput %v, want %v over %d rounds", res.MeanSystemThroughput, want, failAt)
	}
	if want := power / failAt; res.MeanCommPower != want {
		t.Errorf("mean power %v, want %v over %d rounds", res.MeanCommPower, want, failAt)
	}
}

func TestRunAdaptsToMobility(t *testing.T) {
	// A receiver crossing the room forces the controller to hand its
	// beamspot over: the serving TX set in the last round must differ
	// from the first round's.
	traj := []mobility.Trajectory{
		mobility.Waypoints{
			Points: []geom.Vec{geom.V(0.75, 0.75, 0), geom.V(2.25, 2.25, 0)},
			Speed:  0.5,
		},
		mobility.Static{Pos: geom.V(2.25, 0.75, 0)},
	}
	res, err := Run(Config{
		Setup:        scenario.Default(),
		Trajectories: traj,
		Budget:       0.3,
		Rounds:       6,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	first := res.Rounds[0]
	last := res.Rounds[len(res.Rounds)-1]
	if first.RXPositions[0] == last.RXPositions[0] {
		t.Fatal("receiver did not move")
	}
	// Throughput must survive the move (the system re-aims the beamspot).
	if last.Eval.Throughput[0] <= 0 {
		t.Error("moving receiver starved after handover")
	}
}

func TestRunWaveformPHY(t *testing.T) {
	res, err := Run(Config{
		Setup:            scenario.Default(),
		Trajectories:     staticTrajectories(),
		Budget:           0.6,
		Rounds:           1,
		Sync:             clock.MethodNLOSVLC,
		WaveformPHY:      true,
		FramesPerRound:   5,
		MeasurementNoise: 0.02,
		Seed:             4,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Rounds[0]
	if r.PER == nil || len(r.PER) != 4 {
		t.Fatalf("PER = %v", r.PER)
	}
	for i, per := range r.PER {
		if per < 0 || per > 1 {
			t.Errorf("RX%d PER = %v", i+1, per)
		}
	}
}

func TestRunConfigErrors(t *testing.T) {
	if _, err := Run(Config{Setup: scenario.Default()}); err == nil {
		t.Error("no receivers accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for name, cfg := range map[string]Config{
		"negative budget":           {Budget: -1},
		"negative noise":            {MeasurementNoise: -0.1},
		"NaN budget":                {Budget: units.Watts(nan)},
		"+Inf budget":               {Budget: units.Watts(inf)},
		"NaN noise":                 {MeasurementNoise: nan},
		"+Inf noise":                {MeasurementNoise: inf},
		"negative trigger delta":    {Trigger: mac.Trigger{RelDelta: -0.05}},
		"NaN trigger delta":         {Trigger: mac.Trigger{RelDelta: nan}},
		"+Inf trigger delta":        {Trigger: mac.Trigger{RelDelta: inf}},
		"negative max stale epochs": {Trigger: mac.Trigger{RelDelta: 0.05, MaxStaleEpochs: -1}},
	} {
		cfg.Setup, cfg.Trajectories = scenario.Default(), staticTrajectories()
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	sp := workload.DefaultSpec()
	if _, err := Run(Config{Setup: scenario.Default(), Workload: &sp, Trajectories: staticTrajectories()}); err == nil {
		t.Error("Workload together with Trajectories accepted")
	}
	wide := workload.DefaultSpec()
	for _, fleet := range []int{256, 257} {
		wide.Fleet = fleet
		if _, err := Run(Config{Setup: scenario.Default(), Workload: &wide}); err == nil {
			t.Errorf("%d receiver slots accepted past the one-byte RX index", fleet)
		}
	}
	if _, err := Run(Config{Setup: scenario.FloorGrid(9, 9), Trajectories: staticTrajectories()}); err == nil {
		t.Error("81 TXs accepted past the 64-bit TX-ID mask")
	}
}

func TestRunOverUDPNetwork(t *testing.T) {
	udp, err := transport.NewUDPNetwork()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Setup:        scenario.Default(),
		Trajectories: staticTrajectories(),
		Budget:       0.3,
		Rounds:       1,
		Network:      udp,
		Seed:         6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds[0].ActiveTXs == 0 {
		t.Error("no active TXs over UDP transport")
	}
}

// TestRunIncrementalModes: the trigger is an opt-in knob on the same
// engine. A static noiseless scenario is its friendliest case — it skips
// every steady epoch — and the run must land on exactly the full-solve
// numbers, since the reused plan IS the plan a solve reproduces.
func TestRunIncrementalModes(t *testing.T) {
	base := Config{
		Setup:        scenario.Default(),
		Trajectories: staticTrajectories(),
		Policy:       alloc.Heuristic{Kappa: 1.3, AllowPartial: true},
		Budget:       0.6,
		Rounds:       4,
		Seed:         7,
	}
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	triggered := base
	triggered.Trigger = mac.Trigger{RelDelta: 0.05, MaxStaleEpochs: 16}
	got, err := Run(triggered)
	if err != nil {
		t.Fatal(err)
	}
	if got.MeanSystemThroughput != want.MeanSystemThroughput {
		t.Errorf("mean throughput %v, full solve %v", got.MeanSystemThroughput, want.MeanSystemThroughput)
	}
	if got.MeanCommPower != want.MeanCommPower {
		t.Errorf("mean power %v, full solve %v", got.MeanCommPower, want.MeanCommPower)
	}
	for round, r := range got.Rounds {
		if r.ActiveTXs != want.Rounds[round].ActiveTXs {
			t.Errorf("round %d: %d active TXs, full solve %d", round, r.ActiveTXs, want.Rounds[round].ActiveTXs)
		}
	}

	// A RelDelta no gain delta can exceed leaves only the staleness cap:
	// with RX1 crossing the room, which moves its column far past any
	// finite threshold, the policy runs on epochs 0, K, 2K, … and never in
	// between. The adaptation study's refresh periods rest on this.
	const stale = 3
	var now units.Seconds
	traj := staticTrajectories()
	traj[0] = epochClock{Trajectory: mobility.Waypoints{
		Points: []geom.Vec{geom.V(0.5, 0.5, 0), geom.V(2.5, 2.5, 0)},
		Speed:  0.25,
	}, now: &now}
	probe := &epochPolicy{Policy: base.Policy, now: &now}
	capped := base
	capped.Trajectories, capped.Policy, capped.Rounds = traj, probe, 10
	capped.Trigger = mac.Trigger{RelDelta: math.MaxFloat64, MaxStaleEpochs: stale}
	if _, err := Run(capped); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, stale, 2 * stale, 3 * stale}; !slices.Equal(probe.epochs, want) {
		t.Errorf("capped trigger solved on epochs %v, want %v", probe.epochs, want)
	}
}

// epochClock is a trajectory that notes the time of the round Drive is
// setting up, so a policy called later in that epoch knows which it is.
type epochClock struct {
	mobility.Trajectory
	now *units.Seconds
}

func (c epochClock) Position(t units.Seconds) geom.Vec {
	*c.now = t
	return c.Trajectory.Position(t)
}

// epochPolicy records the epoch of each solve (RoundDuration 1 s, so an
// epoch's time is its index).
type epochPolicy struct {
	alloc.Policy
	now    *units.Seconds
	epochs []int
}

func (p *epochPolicy) Allocate(env *alloc.Env, budget units.Watts) (channel.Swings, error) {
	p.epochs = append(p.epochs, int(p.now.S()))
	return p.Policy.Allocate(env, budget)
}

// wireTap records what the controller multicasts: the count, and every
// allocation frame decoded as the transmitters decode it, one per round.
type wireTap struct {
	transport.Network
	t          testing.TB
	multicasts int
	plans      []mac.Allocation
}

func newWireTap(t testing.TB) *wireTap {
	return &wireTap{Network: transport.NewMemNetwork(), t: t}
}

func (w *wireTap) Controller() transport.ControllerLink {
	return tapLink{ControllerLink: w.Network.Controller(), tap: w}
}

type tapLink struct {
	transport.ControllerLink
	tap *wireTap
}

func (l tapLink) Multicast(data []byte) error {
	l.tap.multicasts++
	d, _, err := frame.DecodeDownlink(data)
	if err == nil && d.MAC.Protocol == mac.ProtoAllocation {
		var a mac.Allocation
		if a, err = mac.DecodeAllocation(d.MAC.Payload); err == nil {
			l.tap.plans = append(l.tap.plans, a)
		}
	}
	if err != nil {
		l.tap.t.Errorf("multicast %d does not decode: %v", l.tap.multicasts, err)
	}
	return l.ControllerLink.Multicast(data)
}

// TestRunMulticastsTwicePerRound pins the control plane's fan-out on the
// 36×4 room: each round multicasts the pilot schedule and the allocation,
// not one announcement per transmitter.
func TestRunMulticastsTwicePerRound(t *testing.T) {
	const rounds = 5
	net := newWireTap(t)
	if _, err := Run(Config{
		Setup:            scenario.Default(),
		Trajectories:     staticTrajectories(),
		Budget:           0.6,
		Rounds:           rounds,
		MeasurementNoise: 0.02,
		Network:          net,
		Seed:             1,
	}); err != nil {
		t.Fatal(err)
	}
	if net.multicasts != 2*rounds {
		t.Errorf("%d multicasts in %d rounds, want %d", net.multicasts, rounds, 2*rounds)
	}
}
