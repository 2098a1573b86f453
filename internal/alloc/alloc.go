// Package alloc implements DenseVLC's power-allocation policies: the optimal
// policy obtained by solving the nonlinear program of Eq. (5)–(7), the
// ranking-based Signal-to-Jamming-Ratio heuristic of Algorithm 1, and the
// SISO / D-MISO baselines the paper compares against (Sec. 8.3).
//
// All policies share one contract: given the measured channel matrix and a
// communication power budget, produce the swing-current matrix the
// controller pushes to the transmitters.
package alloc

import (
	"errors"
	"fmt"
	"math"

	"densevlc/internal/channel"
	"densevlc/internal/led"
	"densevlc/internal/units"
)

// Env is the environment a policy allocates within: link-budget parameters,
// the measured path-loss matrix, and the LED model that defines swing limits
// and the power cost of a swing.
type Env struct {
	Params channel.Params
	H      *channel.Matrix
	LED    led.Model
}

// Validate reports whether the environment is internally consistent.
func (e *Env) Validate() error {
	if e.H == nil {
		return errors.New("alloc: nil channel matrix")
	}
	if err := e.Params.Validate(); err != nil {
		return err
	}
	if err := e.LED.Validate(); err != nil {
		return err
	}
	if e.H.N < 1 || e.H.M < 1 {
		return fmt.Errorf("alloc: degenerate channel matrix %dx%d", e.H.N, e.H.M)
	}
	return nil
}

// CheckRequest is the check every Policy.Allocate makes first, and every
// solver that wraps a policy: a valid environment and a finite,
// non-negative budget. A NaN budget would pass a plain budget < 0 test and
// run to an empty allocation.
func CheckRequest(env *Env, budget units.Watts) error {
	if err := env.Validate(); err != nil {
		return err
	}
	if b := budget.W(); b < 0 || math.IsNaN(b) || math.IsInf(b, 0) {
		return fmt.Errorf("alloc: power budget %v W is not finite and non-negative", b)
	}
	return nil
}

// N returns the number of transmitters.
func (e *Env) N() int { return e.H.N }

// M returns the number of receivers.
func (e *Env) M() int { return e.H.M }

// ActivationCost returns the communication power one TX draws at full swing,
// P_C,tx,max = r·(Isw,max/2)² — the paper's 74.42 mW quantum.
func (e *Env) ActivationCost() units.Watts { return e.LED.MaxCommPower() }

// Policy computes a swing allocation for a power budget.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Allocate returns the swing matrix for the given total communication
	// power budget P_C,tot. Implementations must respect both the per-TX
	// swing bound (6) and the power budget (7).
	Allocate(env *Env, budget units.Watts) (channel.Swings, error)
}

// Evaluate computes the metrics of an allocation under the environment.
type Evaluation struct {
	SINR          []float64 // per-RX linear SINR, dimensionless
	Throughput    []units.BitsPerSecond
	SumThroughput units.BitsPerSecond
	SumLog        float64     // objective (5), dimensionless
	CommPower     units.Watts // P_C,tot actually consumed
}

// Evaluate scores a swing allocation.
func Evaluate(env *Env, s channel.Swings) Evaluation {
	sinr := channel.SINR(env.Params, env.H, s)
	tput := channel.Throughput(env.Params, sinr)
	ev := Evaluation{
		SINR:       sinr,
		Throughput: tput,
		SumLog:     channel.SumLogThroughput(env.Params, sinr),
		CommPower:  s.CommPower(env.Params.DynamicResistance),
	}
	for _, t := range tput {
		ev.SumThroughput += t
	}
	return ev
}

// PowerEfficiency returns throughput per watt of communication power,
// the paper's Sec. 8.3 figure of merit. Zero power yields zero.
func (ev Evaluation) PowerEfficiency() units.BitsPerJoule {
	if ev.CommPower <= 0 {
		return 0
	}
	return units.BitsPerJoule(ev.SumThroughput.Bps() / ev.CommPower.W())
}

// Assignment pairs a transmitter with the receiver it serves. RX < 0 means
// the TX stays in illumination-only mode.
type Assignment struct {
	TX int
	RX int
}

// SwingsFromAssignments builds the swing matrix that drives each assigned TX
// at full swing for its receiver, spending at most budget. TXs are activated
// in the order given; the first TX that no longer fits is driven at the
// partial swing that exactly exhausts the budget when allowPartial is true
// (used for smooth budget sweeps), otherwise skipped along with everything
// after it.
func SwingsFromAssignments(env *Env, order []Assignment, budget units.Watts, allowPartial bool) channel.Swings {
	s := channel.NewSwings(env.N(), env.M())
	cost := env.ActivationCost()
	remaining := budget
	r := env.Params.DynamicResistance
	for _, a := range order {
		if a.RX < 0 || a.RX >= env.M() || a.TX < 0 || a.TX >= env.N() {
			continue
		}
		if remaining <= 0 {
			break
		}
		if cost <= remaining {
			s[a.TX][a.RX] = env.LED.MaxSwing
			remaining -= cost
			continue
		}
		if allowPartial {
			// r·(isw/2)² = remaining  =>  isw = 2·sqrt(remaining/r)
			isw := units.Amperes(2 * math.Sqrt(remaining.W()/r.Ohms()))
			s[a.TX][a.RX] = env.LED.ClampSwing(isw)
		}
		break
	}
	return s
}
