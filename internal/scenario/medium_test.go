package scenario

import (
	"math"
	"testing"

	"densevlc/internal/clock"
	"densevlc/internal/geom"
	"densevlc/internal/phy"
	"densevlc/internal/stats"
	"densevlc/internal/units"
)

// TestMediumTruthComposesFaultsAndVacancy pins the medium's gain rule: a
// dark TX's row is zero, a shadowed receiver keeps its fraction, a vacant
// slot is dark whatever its attenuation, and marking occupancy never
// clears a blockage. Truth is that rule over the channel at the current
// positions, bit for bit.
func TestMediumTruthComposesFaultsAndVacancy(t *testing.T) {
	setup := Default()
	pos := Fig7Instance()
	md := NewMedium(setup, pos, clock.MethodNLOSVLC, 0)

	md.Faults().FailTX(7)
	md.Faults().SetRXAttenuation(0, 0.1)
	md.SetOccupied([]bool{true, false, true, true})
	md.Faults().SetRXAttenuation(1, 1) // an unblock on the vacant slot
	md.SetOccupied([]bool{true, false, true, true})
	p := geom.V(2.2, 0.4, 0)
	md.Move(2, p)
	pos[2] = p

	clear := setup.Env(pos, nil).H
	got := md.Truth()
	if got.Params != setup.Params || got.LED != setup.LED {
		t.Error("Truth lost the deployment's parameters")
	}
	if md.Setup().Grid.N() != 36 {
		t.Error("setup accessor")
	}
	for j := 0; j < clear.N; j++ {
		want := []float64{clear.H[j][0] * 0.1, 0, clear.H[j][2], clear.H[j][3]}
		if j == 7 {
			want = []float64{0, 0, 0, 0}
		}
		for i, w := range want {
			if g := got.H.H[j][i]; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("Truth H[%d][%d] = %g, want %g", j, i, g, w)
			}
			if g := md.Gain(j, i); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("Gain(%d, %d) = %g, want %g", j, i, g, w)
			}
		}
	}
	if got := md.Positions(); got[2] != p || len(got) != len(pos) {
		t.Errorf("Positions = %v", got)
	}
	// Truth is a copy: scoring against it cannot disturb the medium.
	got.H.H[0][0] = -1
	if md.Gain(0, 0) < 0 {
		t.Error("Truth aliases the medium's channel")
	}
}

// TestMediumPilot pins the pilot estimate: noise-free pilots report the
// faulted gain and draw nothing; noisy ones draw one normal variate each
// from the caller's stream and clamp at zero.
func TestMediumPilot(t *testing.T) {
	setup := Default()
	pos := Fig7Instance()
	quiet := NewMedium(setup, pos, clock.MethodNLOSVLC, 0)
	rng, ref := stats.NewRand(5), stats.NewRand(5)
	for j := 0; j < setup.Grid.N(); j++ {
		if g := quiet.Pilot(rng, j, 1); g != quiet.Gain(j, 1) {
			t.Fatalf("noise-free pilot of TX %d = %g, want %g", j, g, quiet.Gain(j, 1))
		}
	}
	if rng.Int63() != ref.Int63() {
		t.Fatal("a noise-free pilot drew from the stream")
	}

	const noise = 2.0 // wide enough that some estimates go negative
	noisy := NewMedium(setup, pos, clock.MethodNLOSVLC, noise)
	clamped := 0
	for j := 0; j < setup.Grid.N(); j++ {
		want := noisy.Gain(j, 0) * (1 + noise*ref.NormFloat64())
		if want < 0 {
			want, clamped = 0, clamped+1
		}
		if g := noisy.Pilot(rng, j, 0); g != want {
			t.Fatalf("noisy pilot of TX %d = %g, want %g", j, g, want)
		}
	}
	if clamped == 0 {
		t.Error("no estimate exercised the clamp")
	}
}

// TestMediumSignals pins one data frame's transmitter signals and their
// draw order: members in the given order (a non-leader's member offset
// before its crystal error, plus its chaos clock skew), then every other
// communicating beamspot as a free-running interferer (start phase before
// crystal error). Dark, idle and out-of-range transmitters radiate nothing.
func TestMediumSignals(t *testing.T) {
	setup := Default()
	md := NewMedium(setup, Fig7Instance(), clock.MethodNLOSVLC, 0)
	const skew = units.Seconds(2e-6)
	md.Configure(7, 0, 0.9, true)   // leader of RX 0's beamspot
	md.Configure(8, 0, 0.5, false)  // member with a stepped clock
	md.Configure(20, 1, 0.7, true)  // RX 1's beamspot: interferer
	md.Configure(21, 2, 0.7, true)  // dark: radiates nothing
	md.Configure(22, 3, 0, true)    // idle: no swing
	md.Configure(99, 0, 0.9, false) // out of range: ignored
	md.Faults().SkewClock(8, skew)
	md.Faults().FailTX(21)

	p := setup.Params
	amp := func(tx, rx int, swing units.Amperes) units.Amperes {
		half := swing.A() / 2
		return units.Amperes(p.Responsivity.APerW() * p.WallPlugEfficiency * p.DynamicResistance.Ohms() * md.Gain(tx, rx) * half * half)
	}
	rng, ref := stats.NewRand(9), stats.NewRand(9)
	want := []phy.TXSignal{
		{Amplitude: amp(7, 0, 0.9), ClockPPM: 40*ref.Float64() - 20},
		{Amplitude: amp(8, 0, 0.5), Offset: skew + units.Seconds(1.2e-6*ref.Float64())},
	}
	want[1].ClockPPM = 40*ref.Float64() - 20
	want = append(want, phy.TXSignal{Amplitude: amp(20, 0, 0.7), Offset: units.Seconds(ref.Float64() * 10e-3), Continuous: true})
	want[2].ClockPPM = 40*ref.Float64() - 20

	got := md.Signals(rng, 0, []int{7, 8}, nil)
	if len(got) != len(want) {
		t.Fatalf("got %d signals, want %d: %+v", len(got), len(want), got)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("signal %d = %+v, want %+v", k, got[k], want[k])
		}
	}
	if got[0].Amplitude <= 0 || got[2].Amplitude <= 0 {
		t.Error("a lit transmitter radiated nothing")
	}
	if rng.Int63() != ref.Int63() {
		t.Error("Signals drew a different number of variates than specified")
	}

	link, err := md.NewLink(rng)
	if err != nil || link == nil {
		t.Fatalf("NewLink: %v", err)
	}
}
