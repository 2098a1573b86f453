package workload

import (
	"math"
	"strings"
	"testing"

	"densevlc/internal/units"
)

func TestSpecString(t *testing.T) {
	sp := DefaultSpec()
	sp.MinWattsPerUser = 0.1
	if got, want := sp.String(), "rate:0.5;dwell:20;fleet:8;speed:0.25;minwatts:0.1"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestSpecValidateRejectsNonFinite(t *testing.T) {
	cases := []struct {
		field string
		set   func(sp *Spec)
	}{
		{"rate", func(sp *Spec) { sp.ArrivalRate = math.NaN() }},
		{"speed", func(sp *Spec) { sp.Speed = units.MetersPerSecond(math.NaN()) }},
		{"speed", func(sp *Spec) { sp.Speed = units.MetersPerSecond(math.Inf(1)) }},
		// Finite, but so fast a random-waypoint leg cannot advance the
		// clock: Position would spin forever.
		{"speed", func(sp *Spec) { sp.Speed = 1e300 }},
	}
	for i, c := range cases {
		sp := DefaultSpec()
		c.set(&sp)
		if err := sp.Validate(); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("case %d: got %v, want an error naming %s", i, err, c.field)
		}
	}
}

func TestDefaultSpecValidates(t *testing.T) {
	if err := DefaultSpec().Validate(); err != nil {
		t.Fatalf("DefaultSpec invalid: %v", err)
	}
}

func TestEventKindString(t *testing.T) {
	cases := map[EventKind]string{
		EventArrive:   "arrive",
		EventDepart:   "depart",
		EventReject:   "reject",
		EventKind(99): "EventKind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("EventKind %d: got %q, want %q", int(k), got, want)
		}
	}
}
