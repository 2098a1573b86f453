package workload

import (
	"math"
	"strings"
	"testing"
)

func TestSpecString(t *testing.T) {
	sp := DefaultSpec()
	sp.MinWattsPerUser = 0.1
	if got, want := sp.String(), "rate:0.5;dwell:20;fleet:8;speed:0.25;minwatts:0.1"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestSpecValidateRejectsNonFinite(t *testing.T) {
	sp := DefaultSpec()
	sp.ArrivalRate = math.NaN()
	if err := sp.Validate(); err == nil || !strings.Contains(err.Error(), "finite") {
		t.Errorf("NaN rate: got %v, want finiteness error", err)
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
