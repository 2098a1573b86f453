// Package led models the electrical and optical behaviour of the LED
// transmitters used by DenseVLC.
//
// The model follows Sec. 3.4.1 of the paper:
//
//   - the LED's power draw as a function of forward current I is the
//     Shockley diode law with a series resistance (Eq. 8),
//
//     P_led(I) = k·Vt·ln(I/Is + 1)·I + Rs·I²,
//
//   - modulating around the bias current Ib with a symmetric swing Isw
//     (Manchester-coded OOK, equal probability HIGH/LOW) draws an extra
//     average power of
//
//     P_C = r·(Isw/2)²,  r = k·Vt/(2·Ib) + Rs  (Eq. 10),
//
//     the second-order Taylor expansion of Eq. 8 around Ib, with r the LED's
//     dynamic resistance at the working point.
//
// Fig. 4 of the paper plots the relative error between the exact extra power
// and the Taylor estimate; Model.TaylorError reproduces that curve.
package led

import (
	"errors"
	"fmt"
	"math"

	"densevlc/internal/units"
)

// Mode is the operating mode of an LED (Sec. 2.2).
type Mode int

const (
	// ModeIllumination drives the LED at the constant bias current; no data
	// is transmitted.
	ModeIllumination Mode = iota
	// ModeIllumComm modulates the light intensity around the bias to
	// transmit data while keeping the average brightness unchanged.
	ModeIllumComm
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeIllumination:
		return "illumination"
	case ModeIllumComm:
		return "illumination+communication"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Model captures the electrical and optical parameters of one LED type.
// The zero value is not useful; construct with the fields set or use
// CreeXTE for the paper's device.
type Model struct {
	// IdealityFactor is the dimensionless diode ideality factor k in Eq. 8.
	IdealityFactor float64
	// ThermalVoltage is Vt (kB·T/q, ≈25.85 mV at 300 K).
	ThermalVoltage units.Volts
	// SaturationCurrent is the reverse-bias saturation current Is.
	SaturationCurrent units.Amperes
	// SeriesResistance is Rs.
	SeriesResistance units.Ohms
	// BiasCurrent is the illumination bias Ib, set by the desired
	// illuminance level (450 mA in the paper).
	BiasCurrent units.Amperes
	// MaxSwing is the maximum swing current Isw,max (900 mA in the
	// paper, keeping the modulation inside the LED's linear region).
	MaxSwing units.Amperes
	// WallPlugEfficiency is η, the dimensionless electrical-to-optical
	// conversion efficiency (0.40 in the paper).
	WallPlugEfficiency float64
	// HalfPowerSemiAngle is φ½, defining the Lambertian order of the
	// emission pattern (15° in the paper, set by the lens).
	HalfPowerSemiAngle units.Radians
	// LuminousFluxAtBias is the luminous flux emitted at the bias
	// current, used by the illumination engine. Calibrated so the paper's
	// 6×6 deployment reproduces Fig. 5's 564 lux average on the 0.8 m work
	// plane; 153 lm sits inside the CREE XT-E bin range at 450 mA drive.
	LuminousFluxAtBias units.Lumens
	// DynamicResistanceOverride, when > 0, replaces the analytic dynamic
	// resistance r of Eq. 10. The paper reports the per-TX full-swing
	// communication power as 74.42 mW, which corresponds to r = 0.3675 Ω —
	// slightly above the value the Table 1 parameters alone give at 300 K
	// (junction heating raises Vt). The CREE profile pins r to the paper's
	// figure so power axes line up.
	DynamicResistanceOverride units.Ohms
}

// CreeXTE returns the model of the CREE XT-E LED with the parameters of
// Table 1 of the paper.
func CreeXTE() Model {
	return Model{
		IdealityFactor:            2.68,
		ThermalVoltage:            0.02585,
		SaturationCurrent:         1.44e-18,
		SeriesResistance:          0.19,
		BiasCurrent:               0.450,
		MaxSwing:                  0.900,
		WallPlugEfficiency:        0.40,
		HalfPowerSemiAngle:        units.DegreesToRadians(15),
		LuminousFluxAtBias:        153,
		DynamicResistanceOverride: 0.074420 / (0.450 * 0.450), // 74.42 mW at full swing
	}
}

// Validate reports whether the model parameters are physically meaningful.
func (m Model) Validate() error {
	switch {
	case m.IdealityFactor <= 0:
		return errors.New("led: ideality factor must be positive")
	case m.ThermalVoltage <= 0:
		return errors.New("led: thermal voltage must be positive")
	case m.SaturationCurrent <= 0:
		return errors.New("led: saturation current must be positive")
	case m.SeriesResistance < 0:
		return errors.New("led: series resistance must be non-negative")
	case m.BiasCurrent <= 0:
		return errors.New("led: bias current must be positive")
	case m.MaxSwing < 0:
		return errors.New("led: max swing must be non-negative")
	case m.MaxSwing/2 > m.BiasCurrent:
		return fmt.Errorf("led: max swing %.3f A would drive the LED below zero current at bias %.3f A", m.MaxSwing.A(), m.BiasCurrent.A())
	case m.WallPlugEfficiency <= 0 || m.WallPlugEfficiency > 1:
		return errors.New("led: wall-plug efficiency must be in (0, 1]")
	case m.HalfPowerSemiAngle.Rad() <= 0 || m.HalfPowerSemiAngle.Rad() >= math.Pi/2:
		return errors.New("led: half-power semi-angle must be in (0, 90°)")
	}
	return nil
}

// Power returns the exact electrical power P_led(I) drawn at forward
// current I (Eq. 8). Negative currents are clamped to zero.
func (m Model) Power(i units.Amperes) units.Watts {
	if i <= 0 {
		return 0
	}
	return units.Watts(m.IdealityFactor*m.ThermalVoltage.V()*math.Log(i.A()/m.SaturationCurrent.A()+1)*i.A() +
		m.SeriesResistance.Ohms()*i.A()*i.A())
}

// ForwardVoltage returns the diode terminal voltage at current I:
// V(I) = k·Vt·ln(I/Is + 1) + Rs·I. This is the I-V curve of Fig. 3.
func (m Model) ForwardVoltage(i units.Amperes) units.Volts {
	if i <= 0 {
		return 0
	}
	return units.Volts(m.IdealityFactor*m.ThermalVoltage.V()*math.Log(i.A()/m.SaturationCurrent.A()+1) +
		m.SeriesResistance.Ohms()*i.A())
}

// DynamicResistance returns r of Eq. 10, the LED's small-signal resistance
// at the bias working point. If the model carries a calibration override it
// is returned instead of the analytic value.
func (m Model) DynamicResistance() units.Ohms {
	if m.DynamicResistanceOverride > 0 {
		return m.DynamicResistanceOverride
	}
	return m.analyticDynamicResistance()
}

func (m Model) analyticDynamicResistance() units.Ohms {
	return units.Ohms(m.IdealityFactor*m.ThermalVoltage.V()/(2*m.BiasCurrent.A())) + m.SeriesResistance
}

// IlluminationPower returns P_I, the power drawn for pure illumination at
// the bias current (first term of Eq. 9).
func (m Model) IlluminationPower() units.Watts { return m.Power(m.BiasCurrent) }

// CommPower returns the Taylor-approximated average extra power P_C drawn
// for communication at swing isw (Eq. 10): r·(isw/2)².
func (m Model) CommPower(isw units.Amperes) units.Watts {
	half := isw.A() / 2
	return units.Watts(m.DynamicResistance().Ohms() * half * half)
}

// CommPowerExact returns the exact average extra power for communication at
// swing isw: with Manchester coding the LED spends half the time at
// Ib+isw/2 and half at Ib−isw/2, so the extra power is the average of the
// two exact powers minus the bias power.
func (m Model) CommPowerExact(isw units.Amperes) units.Watts {
	ih := m.BiasCurrent + isw/2
	il := m.BiasCurrent - isw/2
	return (m.Power(ih)+m.Power(il))/2 - m.Power(m.BiasCurrent)
}

// TaylorError returns the relative error of the Taylor-approximated power
// consumption at swing isw, as plotted in Fig. 4 of the paper (≈0.45% at
// 900 mA for the CREE XT-E at 450 mA bias). The comparison is on the total
// average power — P(Ib) + r·(isw/2)² against the exact Manchester average —
// which is how the paper's 0.45% figure arises (the communication term alone
// deviates by ~10% at full swing, but it is a small fraction of the total
// draw). The error is reported as a fraction (0.0045 for 0.45%).
func (m Model) TaylorError(isw units.Amperes) float64 {
	if isw == 0 {
		return 0
	}
	bias := m.Power(m.BiasCurrent)
	exact := bias + m.CommPowerExact(isw)
	if exact == 0 {
		return 0
	}
	// The analytic Taylor coefficient is what the approximation error is
	// about; a calibration override would contaminate the comparison.
	half := isw.A() / 2
	approx := bias + units.Watts(m.analyticDynamicResistance().Ohms()*half*half)
	return math.Abs((approx - exact).W()) / exact.W()
}

// MaxCommPower returns the per-LED communication power when driven at full
// swing, r·(Isw,max/2)² — 74.42 mW for the paper's LED. This is the power
// quantum the discretised allocation policies assign per activated TX.
func (m Model) MaxCommPower() units.Watts { return m.CommPower(m.MaxSwing) }

// HighCurrent returns Ih = Ib + isw/2 for the given swing.
func (m Model) HighCurrent(isw units.Amperes) units.Amperes { return m.BiasCurrent + isw/2 }

// LowCurrent returns Il = Ib − isw/2 for the given swing, clamped at zero
// (the TX front-end emits no light for the LOW symbol at full swing).
func (m Model) LowCurrent(isw units.Amperes) units.Amperes {
	il := m.BiasCurrent - isw/2
	if il < 0 {
		return 0
	}
	return il
}

// OpticalPower returns the radiated optical power when the LED draws
// electrical power pElec: η·pElec.
func (m Model) OpticalPower(pElec units.Watts) units.Watts {
	return units.Watts(m.WallPlugEfficiency * pElec.W())
}

// OpticalSwingPower returns the optical signal power used in the SINR
// computation for a TX modulating at swing isw: the electrical-domain signal
// power r·(isw/2)² converted with the wall-plug efficiency, matching the
// numerator of Eq. 12 where the transmitted signal term is η·r·(Isw/2)².
func (m Model) OpticalSwingPower(isw units.Amperes) units.Watts {
	return units.Watts(m.WallPlugEfficiency * m.CommPower(isw).W())
}

// ClampSwing limits a requested swing to the feasible region [0, MaxSwing].
func (m Model) ClampSwing(isw units.Amperes) units.Amperes {
	if isw < 0 {
		return 0
	}
	if isw > m.MaxSwing {
		return m.MaxSwing
	}
	return isw
}
