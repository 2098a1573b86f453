package precode

import (
	"math"
	"testing"

	"densevlc/internal/alloc"
	"densevlc/internal/channel"
	"densevlc/internal/geom"
	"densevlc/internal/led"
	"densevlc/internal/linalg"
	"densevlc/internal/scenario"
	"densevlc/internal/units"
)

func paperEnv(rx []geom.Vec) *alloc.Env {
	return scenario.Default().Env(rx, nil)
}

func TestZeroForcingNullsInterference(t *testing.T) {
	env := paperEnv(scenario.Scenario2.RXPositions())
	res, err := ZeroForcing(env, 1.19)
	if err != nil {
		t.Fatal(err)
	}
	// The defining property: H·W = I.
	h := linalg.New(env.M(), env.N())
	for i := 0; i < env.M(); i++ {
		for j := 0; j < env.N(); j++ {
			h.Set(i, j, env.H.Gain(j, i))
		}
	}
	prod, err := linalg.Mul(h, res.Weights)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < env.M(); i++ {
		for k := 0; k < env.M(); k++ {
			want := 0.0
			if i == k {
				want = 1
			}
			if math.Abs(prod.At(i, k)-want) > 1e-8 {
				t.Errorf("H·W[%d][%d] = %v, want %v", i, k, prod.At(i, k), want)
			}
		}
	}
}

func TestZeroForcingBudgetAndFairness(t *testing.T) {
	env := paperEnv(scenario.Scenario2.RXPositions())
	res, err := ZeroForcing(env, 1.19)
	if err != nil {
		t.Fatal(err)
	}
	if res.CommPower > 1.19+1e-9 {
		t.Errorf("power %v over budget", res.CommPower)
	}
	if !res.SwingBound && math.Abs(res.CommPower.W()-1.19) > 1e-6 {
		t.Errorf("unbounded solution should exhaust the budget: %v", res.CommPower)
	}
	// Pure ZF with equal gains is perfectly fair.
	for i := 1; i < env.M(); i++ {
		if math.Abs((res.Throughput[i] - res.Throughput[0]).Bps()) > 1e-6 {
			t.Errorf("unequal throughputs: %v", res.Throughput)
		}
	}
	if res.SumThroughput <= 0 {
		t.Error("zero throughput")
	}
}

func TestZeroForcingMonotoneInBudget(t *testing.T) {
	env := paperEnv(scenario.Scenario2.RXPositions())
	prev := units.BitsPerSecond(0)
	for _, b := range []units.Watts{0.1, 0.3, 0.6, 1.2, 2.4} {
		res, err := ZeroForcing(env, b)
		if err != nil {
			t.Fatal(err)
		}
		if res.SumThroughput < prev-1e-9 {
			t.Errorf("throughput fell at budget %v", b)
		}
		prev = res.SumThroughput
	}
}

func TestZeroForcingSwingBound(t *testing.T) {
	env := paperEnv(scenario.Scenario2.RXPositions())
	res, err := ZeroForcing(env, 1e6) // absurd budget: swing limit must bind
	if err != nil {
		t.Fatal(err)
	}
	if !res.SwingBound {
		t.Error("swing bound should cap an unbounded budget")
	}
	if res.CommPower > 1e6 {
		t.Error("power exploded")
	}
}

func TestZeroForcingRankDeficient(t *testing.T) {
	// Two co-located receivers: identical channel rows.
	p := geom.V(1.25, 1.25, 0)
	env := paperEnv([]geom.Vec{p, p})
	if _, err := ZeroForcing(env, 1); err == nil {
		t.Error("co-located receivers should be unseparable")
	}
}

func TestZeroForcingErrors(t *testing.T) {
	env := paperEnv(scenario.Scenario2.RXPositions())
	for _, budget := range []units.Watts{-1, units.Watts(math.NaN()), units.Watts(math.Inf(1))} {
		if _, err := ZeroForcing(env, budget); err == nil {
			t.Errorf("budget %v accepted", budget)
		}
	}
	if _, err := ZeroForcing(&alloc.Env{}, 1); err == nil {
		t.Error("invalid env accepted")
	}
}

func TestZeroForcingVsHeuristicRegimes(t *testing.T) {
	// Noise-limited regime (well-separated receivers, low budget): the
	// heuristic beats ZF, which burns power steering nulls nobody needs.
	env := paperEnv(scenario.Scenario1.RXPositions())
	budget := units.Watts(0.3)
	zf, err := ZeroForcing(env, budget)
	if err != nil {
		t.Fatal(err)
	}
	s, err := alloc.Heuristic{Kappa: 1.3, AllowPartial: true}.Allocate(env, budget)
	if err != nil {
		t.Fatal(err)
	}
	h := alloc.Evaluate(env, s)
	if zf.SumThroughput >= h.SumThroughput {
		t.Errorf("noise-limited: ZF %v should lose to heuristic %v",
			zf.SumThroughput, h.SumThroughput)
	}
}

// tinyEnv builds a controlled 2×2 case for closed-form checks.
func tinyEnv() *alloc.Env {
	m := led.CreeXTE()
	h := channel.NewMatrix(2, 2)
	h.H[0][0], h.H[0][1] = 1e-6, 2e-7
	h.H[1][0], h.H[1][1] = 2e-7, 1e-6
	return &alloc.Env{
		Params: channel.Params{
			NoiseDensity: 7.02e-23, Bandwidth: 1e6,
			Responsivity: 0.4, WallPlugEfficiency: 0.4,
			DynamicResistance: m.DynamicResistance(),
		},
		H: h, LED: m,
	}
}

func TestZeroForcingTinyClosedForm(t *testing.T) {
	env := tinyEnv()
	budget := units.Watts(0.05)
	res, err := ZeroForcing(env, budget)
	if err != nil {
		t.Fatal(err)
	}
	// Power accounting: β·S = budget (swing bound far away at this scale).
	if res.SwingBound {
		t.Fatal("swing bound unexpectedly active")
	}
	if math.Abs((res.CommPower - budget).W()) > 1e-9 {
		t.Errorf("power = %v", res.CommPower)
	}
	// SINR = (R·η·β)²/N0B.
	want := math.Pow(0.4*0.4*res.Beta, 2) / (7.02e-23 * 1e6)
	if math.Abs(res.SINR[0]-want) > 1e-6*want {
		t.Errorf("SINR = %v, want %v", res.SINR[0], want)
	}
}

func TestZeroForcingEdgeGeometry(t *testing.T) {
	// The precoder must also work for odd geometries: verify it returns a
	// finite solution for receivers pushed to the room edge.
	env := paperEnv([]geom.Vec{geom.V(0.1, 0.1, 0), geom.V(2.9, 2.9, 0)})
	res, err := ZeroForcing(env, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.SumThroughput.Bps()) || math.IsInf(res.SumThroughput.Bps(), 0) {
		t.Error("non-finite throughput")
	}
}
