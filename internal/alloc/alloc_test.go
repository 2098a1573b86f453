package alloc

import (
	"math"
	"math/rand"
	"testing"

	"densevlc/internal/channel"
	"densevlc/internal/geom"
	"densevlc/internal/led"
	"densevlc/internal/optics"
	"densevlc/internal/units"
)

// testEnv builds the paper's deployment with receivers at the given xy
// positions (duplicated from package scenario to avoid an import cycle:
// scenario depends on alloc).
func testEnv(rx []geom.Vec) *Env {
	m := led.CreeXTE()
	room := geom.Room{Width: 3, Depth: 3, Height: 2.8}
	grid := geom.CenteredGrid(room, 6, 6, 0.5, room.Height)
	emitters := make([]optics.Emitter, grid.N())
	for i, p := range grid.Positions() {
		emitters[i] = optics.NewDownwardEmitter(p, m.HalfPowerSemiAngle)
	}
	dets := make([]optics.Detector, len(rx))
	for i, p := range rx {
		dets[i] = optics.NewUpwardDetector(geom.V(p.X, p.Y, 0.8), 1.1e-6, math.Pi/2)
	}
	params := channel.Params{
		NoiseDensity:       7.02e-23,
		Bandwidth:          1e6,
		Responsivity:       0.40,
		WallPlugEfficiency: m.WallPlugEfficiency,
		DynamicResistance:  m.DynamicResistance(),
	}
	return &Env{Params: params, H: channel.BuildMatrix(emitters, dets, nil), LED: m}
}

// fig7RX are the receiver positions of the paper's Fig. 7 instance.
func fig7RX() []geom.Vec {
	return []geom.Vec{
		geom.V(0.92, 0.92, 0), geom.V(1.65, 0.65, 0),
		geom.V(0.72, 1.93, 0), geom.V(1.99, 1.69, 0),
	}
}

func TestEnvValidate(t *testing.T) {
	env := testEnv(fig7RX())
	if err := env.Validate(); err != nil {
		t.Fatalf("paper env invalid: %v", err)
	}
	if env.N() != 36 || env.M() != 4 {
		t.Errorf("dims %dx%d", env.N(), env.M())
	}
	bad := &Env{Params: env.Params, LED: env.LED}
	if err := bad.Validate(); err == nil {
		t.Error("nil matrix accepted")
	}
	bad = &Env{Params: env.Params, H: channel.NewMatrix(0, 0), LED: env.LED}
	if err := bad.Validate(); err == nil {
		t.Error("degenerate matrix accepted")
	}
}

func TestActivationCostMatchesPaper(t *testing.T) {
	env := testEnv(fig7RX())
	if got := env.ActivationCost(); math.Abs(got.W()-0.07442) > 1e-6 {
		t.Errorf("activation cost = %v, want 74.42 mW", got)
	}
}

func TestHeuristicRankCoversAllTXs(t *testing.T) {
	env := testEnv(fig7RX())
	ranked := Heuristic{Kappa: 1.3}.Rank(env)
	if len(ranked) != 36 {
		t.Fatalf("ranked %d TXs, want 36", len(ranked))
	}
	seen := make(map[int]bool)
	for _, a := range ranked {
		if seen[a.TX] {
			t.Fatalf("TX %d ranked twice", a.TX)
		}
		seen[a.TX] = true
		if a.RX < -1 || a.RX >= env.M() {
			t.Fatalf("assignment %+v out of range", a)
		}
	}
}

func TestHeuristicFirstPicksAreDominantTXs(t *testing.T) {
	// In the Fig. 7 instance RX1's best TX is TX8 (index 7) — Sec. 4.2.
	// The SJR ranking must surface it first for RX1, and every receiver's
	// first assignment must be one of its three strongest channels (the
	// heuristic may trade a little channel gain for less jamming).
	env := testEnv(fig7RX())
	ranked := Heuristic{Kappa: 1.3}.Rank(env)

	firstFor := make(map[int]int) // rx → tx of first assignment
	for _, a := range ranked {
		if a.RX >= 0 {
			if _, ok := firstFor[a.RX]; !ok {
				firstFor[a.RX] = a.TX
			}
		}
	}
	if firstFor[0] != 7 {
		t.Errorf("RX1's first TX = %d, want 7 (TX8)", firstFor[0])
	}
	for rx := 0; rx < env.M(); rx++ {
		first, ok := firstFor[rx]
		if !ok {
			t.Errorf("RX%d never assigned", rx+1)
			continue
		}
		// Rank of the chosen TX among this receiver's gains.
		better := 0
		g := env.H.Gain(first, rx)
		for j := 0; j < env.N(); j++ {
			if env.H.Gain(j, rx) > g {
				better++
			}
		}
		if better >= 3 {
			t.Errorf("RX%d's first TX %d is only its #%d channel", rx+1, first, better+1)
		}
	}
}

func TestHeuristicBudgetRespected(t *testing.T) {
	env := testEnv(fig7RX())
	r := env.Params.DynamicResistance
	for _, budget := range []units.Watts{0, 0.05, 0.3, 1.19, 3.0} {
		for _, partial := range []bool{false, true} {
			s, err := Heuristic{Kappa: 1.3, AllowPartial: partial}.Allocate(env, budget)
			if err != nil {
				t.Fatal(err)
			}
			if p := s.CommPower(r); p > budget+1e-9 {
				t.Errorf("budget %v partial=%v: consumed %v", budget, partial, p)
			}
			// Per-TX swing bound.
			for j := range s {
				if s.TXTotal(j) > env.LED.MaxSwing+1e-9 {
					t.Errorf("TX %d swing %v exceeds max", j, s.TXTotal(j))
				}
			}
		}
	}
}

func TestHeuristicPartialExhaustsBudget(t *testing.T) {
	env := testEnv(fig7RX())
	r := env.Params.DynamicResistance
	budget := units.Watts(0.1) // not a multiple of the activation cost
	s, err := Heuristic{Kappa: 1.3, AllowPartial: true}.Allocate(env, budget)
	if err != nil {
		t.Fatal(err)
	}
	if p := s.CommPower(r); math.Abs((p - budget).W()) > 1e-9 {
		t.Errorf("partial allocation consumed %v, want %v", p, budget)
	}
}

func TestHeuristicThroughputIncreasesWithBudget(t *testing.T) {
	env := testEnv(fig7RX())
	budgets := []units.Watts{0.0745, 0.149, 0.298, 0.596, 1.19}
	points, err := Sweep(env, Heuristic{Kappa: 1.3, AllowPartial: true}, budgets)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(points); i++ {
		if points[i].Eval.SumThroughput < points[i-1].Eval.SumThroughput*0.95 {
			t.Errorf("throughput dropped sharply from %v to %v at budget %v",
				points[i-1].Eval.SumThroughput, points[i].Eval.SumThroughput, points[i].Budget)
		}
	}
	// All four receivers get served once the budget covers 4 activations.
	last := points[len(points)-1]
	for i, tp := range last.Throughput {
		if tp <= 0 {
			t.Errorf("RX%d starved at full budget", i+1)
		}
	}
}

func TestKappaOneUnderperformsAtLowBudget(t *testing.T) {
	// Fig. 11: κ = 1.0 over-penalises interference and loses ~40% system
	// throughput versus κ = 1.3 at low-to-mid budgets.
	env := testEnv(fig7RX())
	budget := 4 * env.ActivationCost()
	s10, err := Heuristic{Kappa: 1.0, AllowPartial: true}.Allocate(env, budget)
	if err != nil {
		t.Fatal(err)
	}
	s13, err := Heuristic{Kappa: 1.3, AllowPartial: true}.Allocate(env, budget)
	if err != nil {
		t.Fatal(err)
	}
	e10, e13 := Evaluate(env, s10), Evaluate(env, s13)
	if e10.SumThroughput >= e13.SumThroughput {
		t.Errorf("κ=1.0 (%v) should underperform κ=1.3 (%v) at low budget",
			e10.SumThroughput, e13.SumThroughput)
	}
}

func TestAllocateErrors(t *testing.T) {
	env := testEnv(fig7RX())
	policies := []Policy{Heuristic{}, AdaptiveKappa{}, SISO{}, DMISO{}, Optimal{}}
	// NaN passes a plain budget < 0 test; ±Inf is no wattage either.
	badBudgets := []units.Watts{-1, units.Watts(math.NaN()), units.Watts(math.Inf(1)), units.Watts(math.Inf(-1))}
	for _, p := range policies {
		for _, b := range badBudgets {
			if _, err := p.Allocate(env, b); err == nil {
				t.Errorf("%s accepted budget %v W", p.Name(), b.W())
			}
		}
		if _, err := p.Allocate(env, 0); err != nil {
			t.Errorf("%s refused a zero budget: %v", p.Name(), err)
		}
		badEnv := &Env{}
		if _, err := p.Allocate(badEnv, 1); err == nil {
			t.Errorf("%s accepted an invalid env", p.Name())
		}
	}
	for _, k := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := (Heuristic{Kappa: k}).Allocate(env, 1); err == nil {
			t.Errorf("Heuristic accepted κ=%v", k)
		}
	}
}

func TestSISOActivatesOneTXPerRX(t *testing.T) {
	env := testEnv(fig7RX())
	s, err := SISO{}.Allocate(env, 10) // ample budget
	if err != nil {
		t.Fatal(err)
	}
	active := 0
	for j := range s {
		if s.TXTotal(j) > 0 {
			active++
			// Full swing, single receiver.
			if math.Abs((s.TXTotal(j) - env.LED.MaxSwing).A()) > 1e-12 {
				t.Errorf("TX %d at partial swing %v", j, s.TXTotal(j))
			}
		}
	}
	if active != 4 {
		t.Errorf("SISO activated %d TXs, want 4", active)
	}
	want := 4 * env.ActivationCost()
	if got := (SISO{}).OperatingPower(env); math.Abs((got - want).W()) > 1e-12 {
		t.Errorf("operating power = %v, want %v (298 mW)", got, want)
	}
	// The paper's Fig. 21 operating point: 298 mW.
	if math.Abs(want.W()-0.298) > 0.002 {
		t.Errorf("SISO operating power %v, paper reports ≈298 mW", want)
	}
}

func TestDMISOUsesAllTXs(t *testing.T) {
	// The paper's D-MISO: each RX assigned its 9 surrounding TXs → all 36
	// active → 2.68 W.
	env := testEnv(fig7RX())
	d := DMISO{}
	asg := d.Assignments(env)
	if len(asg) != 36 {
		t.Errorf("D-MISO assigned %d TXs, want 36", len(asg))
	}
	if got := d.OperatingPower(env); math.Abs(got.W()-2.68) > 0.01 {
		t.Errorf("D-MISO operating power = %v, paper reports 2.68 W", got)
	}
	s, err := d.Allocate(env, 3)
	if err != nil {
		t.Fatal(err)
	}
	active := 0
	for j := range s {
		if s.TXTotal(j) > 0 {
			active++
		}
	}
	if active != 36 {
		t.Errorf("active TXs = %d, want 36", active)
	}
}

func TestEvaluationPowerEfficiency(t *testing.T) {
	ev := Evaluation{SumThroughput: 2e6, CommPower: 0.5}
	if got := ev.PowerEfficiency(); got != 4e6 {
		t.Errorf("efficiency = %v", got)
	}
	zero := Evaluation{SumThroughput: 1}
	if zero.PowerEfficiency() != 0 {
		t.Error("zero power should give zero efficiency")
	}
}

func TestSwingsFromAssignmentsEdgeCases(t *testing.T) {
	env := testEnv(fig7RX())
	// Out-of-range and unassigned entries are skipped silently.
	order := []Assignment{{TX: -1, RX: 0}, {TX: 0, RX: -1}, {TX: 99, RX: 0}, {TX: 0, RX: 99}, {TX: 5, RX: 1}}
	s := SwingsFromAssignments(env, order, 10, false)
	if s[5][1] != env.LED.MaxSwing {
		t.Error("valid assignment not applied")
	}
	total := units.Amperes(0)
	for j := range s {
		total += s.TXTotal(j)
	}
	if math.Abs((total - env.LED.MaxSwing).A()) > 1e-12 {
		t.Errorf("unexpected extra swing: %v", total)
	}
	// Zero budget → nothing.
	s = SwingsFromAssignments(env, order, 0, true)
	for j := range s {
		if s.TXTotal(j) != 0 {
			t.Error("zero budget should allocate nothing")
		}
	}
}

func TestBudgetGridAndActivationGrid(t *testing.T) {
	g := BudgetGrid(3, 3)
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(g[i].W()-want[i]) > 1e-12 {
			t.Errorf("BudgetGrid = %v", g)
		}
	}
	if BudgetGrid(1, 0) != nil {
		t.Error("count<1 should give nil")
	}
	env := testEnv(fig7RX())
	ag := ActivationGrid(env, 2)
	if math.Abs((ag[0]-env.ActivationCost()).W()) > 1e-12 || math.Abs((ag[1]-2*env.ActivationCost()).W()) > 1e-12 {
		t.Errorf("ActivationGrid = %v", ag)
	}
}

func TestNormalizeSystem(t *testing.T) {
	pts := []SweepPoint{
		{Eval: Evaluation{SumThroughput: 1e6}},
		{Eval: Evaluation{SumThroughput: 4e6}},
		{Eval: Evaluation{SumThroughput: 2e6}},
	}
	n := NormalizeSystem(pts)
	if n[0] != 0.25 || n[1] != 1 || n[2] != 0.5 {
		t.Errorf("normalized = %v", n)
	}
	if z := NormalizeSystem([]SweepPoint{{}}); z[0] != 0 {
		t.Error("all-zero sweep should normalise to zeros")
	}
}

func TestAdaptiveKappaBehaves(t *testing.T) {
	env := testEnv(fig7RX())
	a := AdaptiveKappa{}
	ranked := a.Rank(env)
	if len(ranked) != 36 {
		t.Fatalf("ranked %d", len(ranked))
	}
	s, err := a.Allocate(env, 1.19)
	if err != nil {
		t.Fatal(err)
	}
	ev := Evaluate(env, s)
	// Sanity: serves every receiver and stays within budget.
	for i, tp := range ev.Throughput {
		if tp <= 0 {
			t.Errorf("RX%d starved", i+1)
		}
	}
	if ev.CommPower > 1.19+1e-9 {
		t.Errorf("budget exceeded: %v", ev.CommPower)
	}
	// At a mid budget the adaptive variant should be competitive with the
	// best fixed κ (within 10%).
	s13, _ := Heuristic{Kappa: 1.3}.Allocate(env, 1.19)
	e13 := Evaluate(env, s13)
	if ev.SumThroughput < 0.9*e13.SumThroughput {
		t.Errorf("adaptive κ throughput %v far below κ=1.3's %v", ev.SumThroughput, e13.SumThroughput)
	}
}

func TestHeuristicBudgetMonotonicityProperty(t *testing.T) {
	// Property over random instances: under the partial-swing heuristic a
	// larger budget never reduces the proportional-fair objective once
	// every receiver is served (more power is never forced to be spent
	// badly at low-to-mid budgets, before interference saturation).
	rng := rand.New(rand.NewSource(17))
	set := scenarioDefaultForAlloc()
	for trial := 0; trial < 10; trial++ {
		rx := make([]geom.Vec, 4)
		for i := range rx {
			rx[i] = geom.V(0.5+rng.Float64()*2, 0.5+rng.Float64()*2, 0)
		}
		env := set(rx)
		policy := Heuristic{Kappa: 1.3, AllowPartial: true}
		prev := math.Inf(-1)
		base := 4 * env.ActivationCost()
		for k := 1; k <= 4; k++ {
			s, err := policy.Allocate(env, units.Watts(base.W()*float64(k)/2))
			if err != nil {
				t.Fatal(err)
			}
			obj := Evaluate(env, s).SumLog
			if !math.IsInf(prev, -1) && obj < prev-0.5 {
				t.Fatalf("trial %d: objective dropped sharply %v → %v", trial, prev, obj)
			}
			prev = obj
		}
	}
}

// scenarioDefaultForAlloc builds envs without importing scenario (cycle).
func scenarioDefaultForAlloc() func(rx []geom.Vec) *Env {
	return func(rx []geom.Vec) *Env { return testEnv(rx) }
}
