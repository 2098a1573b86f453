package led

import (
	"math"
	"testing"
	"testing/quick"

	"densevlc/internal/optics"
	"densevlc/internal/units"
)

func TestCreeXTEValid(t *testing.T) {
	if err := CreeXTE().Validate(); err != nil {
		t.Fatalf("paper LED invalid: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	base := CreeXTE()
	mutations := []func(*Model){
		func(m *Model) { m.IdealityFactor = 0 },
		func(m *Model) { m.ThermalVoltage = -1 },
		func(m *Model) { m.SaturationCurrent = 0 },
		func(m *Model) { m.SeriesResistance = -0.1 },
		func(m *Model) { m.BiasCurrent = 0 },
		func(m *Model) { m.MaxSwing = -1 },
		func(m *Model) { m.MaxSwing = 2 * m.BiasCurrent * 1.5 }, // swing below zero current
		func(m *Model) { m.WallPlugEfficiency = 0 },
		func(m *Model) { m.WallPlugEfficiency = 1.2 },
		func(m *Model) { m.HalfPowerSemiAngle = 0 },
		func(m *Model) { m.HalfPowerSemiAngle = math.Pi },
	}
	for i, mut := range mutations {
		m := base
		mut(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("mutation %d should be invalid", i)
		}
	}
}

func TestPowerMonotoneInCurrent(t *testing.T) {
	m := CreeXTE()
	prev := units.Watts(0)
	for i := units.Amperes(0.01); i <= 1.0; i += 0.01 {
		p := m.Power(i)
		if p <= prev {
			t.Fatalf("power not increasing at %v A", i)
		}
		prev = p
	}
	if m.Power(0) != 0 || m.Power(-1) != 0 {
		t.Error("non-positive currents should draw no power")
	}
}

func TestForwardVoltagePlausible(t *testing.T) {
	m := CreeXTE()
	// CREE XT-E forward voltage is around 3 V at the bias point.
	v := m.ForwardVoltage(m.BiasCurrent)
	if v < 2.5 || v > 3.8 {
		t.Errorf("forward voltage %v V implausible for CREE XT-E", v)
	}
	// I-V curve is monotone.
	if m.ForwardVoltage(0.9) <= m.ForwardVoltage(0.45) {
		t.Error("I-V curve must be monotone")
	}
	if m.ForwardVoltage(0) != 0 {
		t.Error("zero current → zero voltage")
	}
}

func TestIlluminationPowerMatchesMeasurementScale(t *testing.T) {
	// The paper measures 2.51 W electrical for illumination on the real
	// front-end (LED + driver). The bare LED model must come in below that
	// but in the same ballpark (driver efficiency eats the rest).
	m := CreeXTE()
	p := m.IlluminationPower()
	if p < 0.8 || p > 2.51 {
		t.Errorf("illumination power %v W out of plausible range (paper front-end: 2.51 W)", p)
	}
}

func TestMaxCommPowerMatchesPaper(t *testing.T) {
	// Sec. 4.2: P_C,tx,max = r·(Isw,max/2)² = 74.42 mW.
	m := CreeXTE()
	got := m.MaxCommPower()
	if math.Abs(got.W()-0.07442) > 1e-6 {
		t.Errorf("MaxCommPower = %v W, want 74.42 mW", got)
	}
}

func TestCommPowerQuadratic(t *testing.T) {
	m := CreeXTE()
	// P_C(2x) = 4·P_C(x) for the Taylor form.
	a, b := m.CommPower(0.2), m.CommPower(0.4)
	if math.Abs((b - 4*a).W()) > 1e-12 {
		t.Errorf("quadratic scaling violated: %v vs %v", b, 4*a)
	}
	if m.CommPower(0) != 0 {
		t.Error("zero swing should cost nothing")
	}
}

func TestTaylorErrorMatchesFig4(t *testing.T) {
	// Fig. 4: relative error grows with swing and stays ≈0.45% at 900 mA
	// for Ib = 450 mA. Use the analytic (non-overridden) model, as Fig. 4
	// is about the approximation itself.
	m := CreeXTE()
	m.DynamicResistanceOverride = 0

	at900 := m.TaylorError(0.9)
	if at900 < 0.002 || at900 > 0.008 {
		t.Errorf("Taylor error at 900 mA = %.4f, paper reports ≈0.45%%", at900)
	}
	// Error grows monotonically with the swing (shape of Fig. 4).
	prev := 0.0
	for isw := units.Amperes(0.05); isw <= 0.9; isw += 0.05 {
		e := m.TaylorError(isw)
		if e < prev-1e-12 {
			t.Fatalf("Taylor error not monotone at %v A: %v < %v", isw, e, prev)
		}
		prev = e
	}
	// And is tiny for small swings where the expansion is exact.
	if e := m.TaylorError(0.01); e > 1e-4 {
		t.Errorf("error at 10 mA = %v, should be negligible", e)
	}
}

func TestCommPowerExactVsTaylorProperty(t *testing.T) {
	m := CreeXTE()
	m.DynamicResistanceOverride = 0
	f := func(raw float64) bool {
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			return true
		}
		isw := units.Amperes(math.Mod(math.Abs(raw), m.MaxSwing.A()))
		exact := m.CommPowerExact(isw)
		approx := m.CommPower(isw)
		if isw == 0 {
			return exact == 0 && approx == 0
		}
		// The full-power relative error stays below the paper's 1.5% axis
		// ceiling (Fig. 4) everywhere in the allowed swing region, and the
		// communication term alone stays within 15%.
		if m.TaylorError(isw) > 0.015 {
			return false
		}
		return math.Abs((exact - approx).W()) <= 0.15*math.Max(exact.W(), approx.W())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHighLowCurrents(t *testing.T) {
	m := CreeXTE()
	if ih := m.HighCurrent(0.9); math.Abs(ih.A()-0.9) > 1e-12 {
		t.Errorf("Ih = %v, want 0.9", ih)
	}
	if il := m.LowCurrent(0.9); il != 0 {
		t.Errorf("Il = %v, want 0 (full swing turns the LED off)", il)
	}
	if il := m.LowCurrent(0.4); math.Abs(il.A()-0.25) > 1e-12 {
		t.Errorf("Il = %v, want 0.25", il)
	}
	// Symmetric swing keeps the average current at the bias → same
	// brightness in both modes (flicker-free requirement).
	avg := (m.HighCurrent(0.4) + m.LowCurrent(0.4)) / 2
	if math.Abs((avg - m.BiasCurrent).A()) > 1e-12 {
		t.Errorf("average current %v drifts from bias %v", avg, m.BiasCurrent)
	}
}

func TestLambertianOrderFor15Degrees(t *testing.T) {
	// The CREE profile's φ½ = 15° gives the channel model's m ≈ 20.
	got := optics.LambertianOrder(CreeXTE().HalfPowerSemiAngle)
	if math.Abs(got-20) > 0.5 {
		t.Errorf("Lambertian order = %v, want ≈20 for 15°", got)
	}
}

func TestClampSwing(t *testing.T) {
	m := CreeXTE()
	if m.ClampSwing(-1) != 0 {
		t.Error("negative clamps to 0")
	}
	if m.ClampSwing(2) != m.MaxSwing {
		t.Error("excess clamps to max")
	}
	if m.ClampSwing(0.5) != 0.5 {
		t.Error("in-range passes through")
	}
}

func TestOpticalPower(t *testing.T) {
	m := CreeXTE()
	if got := m.OpticalPower(1.0); got != 0.40 {
		t.Errorf("OpticalPower = %v", got)
	}
	want := units.Watts(m.WallPlugEfficiency * m.CommPower(0.9).W())
	if got := m.OpticalSwingPower(0.9); math.Abs((got - want).W()) > 1e-15 {
		t.Errorf("OpticalSwingPower = %v, want %v", got, want)
	}
}

func TestDynamicResistanceOverride(t *testing.T) {
	m := CreeXTE()
	if m.DynamicResistance() != m.DynamicResistanceOverride {
		t.Error("override should win when set")
	}
	m.DynamicResistanceOverride = 0
	want := units.Ohms(m.IdealityFactor*m.ThermalVoltage.V()/(2*m.BiasCurrent.A())) + m.SeriesResistance
	if math.Abs((m.DynamicResistance() - want).Ohms()) > 1e-15 {
		t.Errorf("analytic r = %v, want %v", m.DynamicResistance(), want)
	}
}

func TestModeString(t *testing.T) {
	if ModeIllumination.String() != "illumination" {
		t.Error(ModeIllumination.String())
	}
	if ModeIllumComm.String() != "illumination+communication" {
		t.Error(ModeIllumComm.String())
	}
	if Mode(9).String() != "Mode(9)" {
		t.Error(Mode(9).String())
	}
}
