// Package workload is DenseVLC's service-grade population engine: it grows
// the paper's handful of fixed receivers into a churning user population —
// Poisson arrivals, exponentially distributed dwell times, fleets of
// waypoint-mobile users, per-user bursty traffic — and tracks the
// beamspot handovers the controller performs as users cross the floor.
//
// The engine is built around a fixed fleet of receiver slots. The paper's
// pilot/report/allocate round structure addresses receivers by index, so a
// "user" here is a tenancy of a slot: an arrival occupies the lowest free
// slot with a fresh trajectory, traffic state and dwell time; a departure
// frees the slot again. A free slot's photodiode is dark — its channel
// column is masked to zero — and the allocator therefore never grants it
// swing (the SJR ranking drops zero-gain receivers, and cluster formation
// gives them empty serving sets), which is the departure invariant the
// conformance suite pins.
//
// Everything the engine does is deterministic for a given seed: arrivals,
// dwell draws, per-user motion and traffic all derive from streams split off
// one root RNG, in a fixed evaluation order, and the append-only event
// Trace renders to canonical bytes so two runs can be compared exactly.
package workload

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"densevlc/internal/units"
)

// Spec parameterises a churn workload. The zero value is invalid; start
// from DefaultSpec.
type Spec struct {
	// ArrivalRate is the Poisson arrival intensity in users per second.
	ArrivalRate float64
	// MeanDwell is the mean of the exponential session length.
	MeanDwell units.Seconds
	// Fleet is the number of receiver slots (the maximum concurrent
	// population; sets M everywhere downstream).
	Fleet int
	// Speed is the random-waypoint speed of every user.
	Speed units.MetersPerSecond
	// MinWattsPerUser is the admission controller's capacity gate: an
	// arrival is rejected when admitting it would leave the population less
	// than this share of the communication power budget each. Zero disables
	// the gate (slots remain the only limit).
	MinWattsPerUser units.Watts
}

// DefaultSpec is the reference workload: a fleet of 8 slots at the paper's
// gantry speed, moderate churn, no capacity gate. Every user's traffic is
// the same bursty source (see traffic).
func DefaultSpec() Spec {
	return Spec{
		ArrivalRate: 0.5,
		MeanDwell:   20,
		Fleet:       8,
		Speed:       0.25,
	}
}

// Validate reports whether the spec is usable. Non-finite fields are
// rejected explicitly since NaN compares false against every bound.
func (sp Spec) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"rate", sp.ArrivalRate},
		{"dwell", sp.MeanDwell.S()},
		{"speed", sp.Speed.MPerS()},
		{"minwatts", sp.MinWattsPerUser.W()},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("workload: %s must be finite", f.name)
		}
		if f.v < 0 {
			return fmt.Errorf("workload: %s %g must not be negative", f.name, f.v)
		}
	}
	if sp.Fleet < 1 {
		return fmt.Errorf("workload: fleet %d must be at least 1", sp.Fleet)
	}
	if sp.MeanDwell <= 0 {
		return errors.New("workload: dwell must be positive")
	}
	return nil
}

// String renders the spec as semicolon-joined key:value pairs in a fixed
// order, for logs and the CLI's deployment line.
func (sp Spec) String() string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return fmt.Sprintf("rate:%s;dwell:%s;fleet:%d;speed:%s;minwatts:%s",
		g(sp.ArrivalRate), g(sp.MeanDwell.S()), sp.Fleet, g(sp.Speed.MPerS()), g(sp.MinWattsPerUser.W()))
}
