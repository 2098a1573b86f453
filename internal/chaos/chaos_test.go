package chaos

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"densevlc/internal/channel"
	"densevlc/internal/stats"
	"densevlc/internal/testutil"
	"densevlc/internal/units"
)

// fakeTarget records applied faults for assertion.
type fakeTarget struct {
	failed map[int]bool
	keep   map[int]float64
	skew   map[int]units.Seconds
	log    []string
}

func newFakeTarget() *fakeTarget {
	return &fakeTarget{failed: map[int]bool{}, keep: map[int]float64{}, skew: map[int]units.Seconds{}}
}

func (f *fakeTarget) FailTX(tx int) {
	f.failed[tx] = true
	f.log = append(f.log, Event{Kind: KindTXFail, Target: tx}.String())
}
func (f *fakeTarget) RecoverTX(tx int) {
	f.failed[tx] = false
	f.log = append(f.log, Event{Kind: KindTXRecover, Target: tx}.String())
}
func (f *fakeTarget) SetRXAttenuation(rx int, keep float64) {
	f.keep[rx] = keep
	f.log = append(f.log, Event{Kind: KindRXBlock, Target: rx, Value: keep}.String())
}
func (f *fakeTarget) SkewClock(tx int, delta units.Seconds) {
	f.skew[tx] += delta
	f.log = append(f.log, Event{Kind: KindClockStep, Target: tx, Value: delta.S()}.String())
}

func TestParseRoundTrip(t *testing.T) {
	spec := "2:txfail:7;2:txfail:9;4:rxblock:0:0.1;6:rxunblock:0;5:clockstep:3:1e-05"
	s, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 5 {
		t.Fatalf("parsed %d events, want 5", s.Len())
	}
	if err := s.Validate(36, 4); err != nil {
		t.Fatal(err)
	}
	// Round trip: String() renders the normalised order, which re-parses to
	// the same schedule.
	s2, err := Parse(s.String())
	if err != nil {
		t.Fatal(err)
	}
	if s.String() != s2.String() {
		t.Errorf("round trip diverged:\n%s\n%s", s, s2)
	}
}

func TestParseEmpty(t *testing.T) {
	s, err := Parse("  ")
	if err != nil || s.Len() != 0 {
		t.Fatalf("empty spec: %v, %d events", err, s.Len())
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"x:txfail:7",        // bad time
		"1:frob:7",          // unknown kind
		"1:txfail:x",        // bad target
		"1:txfail",          // missing target
		"1:rxblock:0",       // missing value
		"1:clockstep:0",     // missing value
		"1:rxblock:0:x",     // bad value
		"1:txfail:7:0.5",    // spurious value
		"1:txrecover:7:0.5", // spurious value
		"NaN:txfail:7",      // non-finite time
		"+Inf:txfail:7",     // non-finite time
		"1:rxblock:0:nan",   // non-finite value
		"1:clockstep:0:inf", // non-finite value
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("spec %q parsed without error", spec)
		}
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		s  *Schedule
		ok bool
	}{
		{NewSchedule().TXFail(1, 35), true},
		{NewSchedule().TXFail(1, 36), false},
		{NewSchedule().TXFail(-1, 0), false}, // negative time
		{NewSchedule().RXBlock(1, 3, 0.5), true},
		{NewSchedule().RXBlock(1, 4, 0.5), false},
		{NewSchedule().RXBlock(1, 0, 1.5), false}, // fraction out of range
		{NewSchedule().ClockStep(1, 0, 1e-6), true},
		{NewSchedule().ClockStep(1, 40, 1e-6), false},
	}
	for i, c := range cases {
		err := c.s.Validate(36, 4)
		if (err == nil) != c.ok {
			t.Errorf("case %d: Validate = %v, want ok=%v", i, err, c.ok)
		}
	}
}

func TestInjectorAppliesInOrder(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	// Added out of order; normalised order is by time, insertion order
	// breaking ties.
	s := NewSchedule()
	s.RXBlock(3, 1, 0.2)
	s.TXFail(1, 7)
	s.TXRecover(3, 7)
	s.ClockStep(1, 2, 5e-6)

	in := NewInjector(s)
	tgt := newFakeTarget()

	if n := in.Apply(0, 0, tgt); n != 0 {
		t.Fatalf("t=0 applied %d events", n)
	}
	if n := in.Apply(1, 1, tgt); n != 2 {
		t.Fatalf("t=1 applied %d events, want 2", n)
	}
	if !tgt.failed[7] || tgt.skew[2] != 5e-6 {
		t.Errorf("t=1 state: %+v", tgt)
	}
	if n := in.Apply(3, 3, tgt); n != 2 {
		t.Fatalf("t=3 applied %d events, want 2", n)
	}
	if tgt.failed[7] || tgt.keep[1] != 0.2 {
		t.Errorf("t=3 state: %+v", tgt)
	}
	if in.Pending() != 0 {
		t.Errorf("%d events still pending", in.Pending())
	}

	// Trace bytes are the canonical record.
	want := "round 1 t=1 1:txfail:7\n" +
		"round 1 t=1 1:clockstep:2:5e-06\n" +
		"round 3 t=3 3:rxblock:1:0.2\n" +
		"round 3 t=3 3:txrecover:7\n"
	if got := string(in.Trace().Bytes()); got != want {
		t.Errorf("trace:\n%s\nwant:\n%s", got, want)
	}
}

func TestInjectorUnblockRestoresFullGain(t *testing.T) {
	s := NewSchedule().RXBlock(1, 0, 0).RXUnblock(2, 0)
	in := NewInjector(s)
	tgt := newFakeTarget()
	in.Apply(1, 1, tgt)
	if tgt.keep[0] != 0 {
		t.Fatalf("keep = %v after block", tgt.keep[0])
	}
	in.Apply(2, 2, tgt)
	if tgt.keep[0] != 1 {
		t.Fatalf("keep = %v after unblock", tgt.keep[0])
	}
}

func TestNilScheduleInjector(t *testing.T) {
	in := NewInjector(nil)
	if n := in.Apply(0, 1e9, newFakeTarget()); n != 0 {
		t.Errorf("nil schedule applied %d events", n)
	}
	if len(in.Trace().Bytes()) != 0 {
		t.Error("nil schedule produced a trace")
	}
}

func TestTXFlapExpansion(t *testing.T) {
	s := NewSchedule().TXFlap(2, 5, 0.5, 2, 3)
	evs := s.Events()
	if len(evs) != 6 {
		t.Fatalf("%d events, want 6", len(evs))
	}
	// Pairs at t = 2/2.5, 4/4.5, 6/6.5.
	wantTimes := []float64{2, 2.5, 4, 4.5, 6, 6.5}
	for i, e := range evs {
		if e.At.S() != wantTimes[i] {
			t.Errorf("event %d at t=%g, want %g", i, e.At.S(), wantTimes[i])
		}
		wantKind := KindTXFail
		if i%2 == 1 {
			wantKind = KindTXRecover
		}
		if e.Kind != wantKind || e.Target != 5 {
			t.Errorf("event %d = %v", i, e)
		}
	}
}

func TestRandomTXFailuresDeterministic(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	s1, chosen1 := RandomTXFailures(stats.NewRand(7), 2, 36, 8)
	s2, chosen2 := RandomTXFailures(stats.NewRand(7), 2, 36, 8)
	if s1.String() != s2.String() {
		t.Errorf("same seed produced different schedules:\n%s\n%s", s1, s2)
	}
	if len(chosen1) != 8 {
		t.Fatalf("chose %d TXs", len(chosen1))
	}
	seen := map[int]bool{}
	for i, tx := range chosen1 {
		if tx != chosen2[i] {
			t.Errorf("chosen order diverged: %v vs %v", chosen1, chosen2)
			break
		}
		if seen[tx] {
			t.Errorf("TX %d chosen twice", tx)
		}
		seen[tx] = true
	}
	// k > n clamps.
	_, all := RandomTXFailures(stats.NewRand(1), 0, 4, 9)
	if len(all) != 4 {
		t.Errorf("clamped choice has %d TXs, want 4", len(all))
	}
}

// TestTraceDeterminism is the package-level half of the chaos determinism
// guarantee: replaying the same schedule yields byte-identical traces.
func TestTraceDeterminism(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	sched, _ := RandomTXFailures(stats.NewRand(3), 1, 36, 5)
	sched.RXBlock(2, 1, 0.1).ClockStep(3, 4, 2e-6).RXUnblock(4, 1)

	run := func() []byte {
		in := NewInjector(sched)
		tgt := newFakeTarget()
		for round := 0; round < 6; round++ {
			in.Apply(round, units.Seconds(round), tgt)
		}
		return in.Trace().Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Errorf("traces diverged:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(string(a), "rxblock") {
		t.Errorf("trace missing rxblock entry:\n%s", a)
	}
}

// TestFaults pins the shared fault model both runtimes read: keep clamps to
// [0, 1] with −0 stored as +0, out-of-range indices are ignored, and Gain
// agrees bit for bit with "dark row, scaled column".
func TestFaults(t *testing.T) {
	const n, m = 4, 3
	negZero := math.Copysign(0, -1)
	// Variables, not constants, so the expected sum rounds like the
	// accumulated one.
	step, back := units.Seconds(5e-6), units.Seconds(-2e-6)
	tests := []struct {
		name   string
		apply  func(f *Faults)
		failed []int
		keep   [m]float64
		skew   [n]units.Seconds
	}{
		{
			name:  "clear",
			apply: func(*Faults) {},
			keep:  [m]float64{1, 1, 1},
		},
		{
			name: "keep clamps to [0,1]",
			apply: func(f *Faults) {
				f.SetRXAttenuation(0, 1.5)
				f.SetRXAttenuation(1, -0.2)
				f.SetRXAttenuation(2, negZero)
			},
			keep: [m]float64{1, 0, 0},
		},
		{
			name: "parsed rxblock of -0 stores +0",
			apply: func(f *Faults) {
				s, err := Parse("0:rxblock:2:-0")
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Validate(n, m); err != nil {
					t.Fatal(err)
				}
				NewInjector(s).Apply(0, 0, f)
			},
			keep: [m]float64{1, 1, 0},
		},
		{
			name: "out-of-range indices are no-ops",
			apply: func(f *Faults) {
				f.FailTX(-1)
				f.FailTX(n)
				f.RecoverTX(n)
				f.SetRXAttenuation(-1, 0)
				f.SetRXAttenuation(m, 0)
				f.SkewClock(-1, 1e-6)
				f.SkewClock(n, 1e-6)
			},
			keep: [m]float64{1, 1, 1},
		},
		{
			name: "fail then recover",
			apply: func(f *Faults) {
				f.FailTX(2)
				f.FailTX(1)
				f.RecoverTX(2)
			},
			failed: []int{1},
			keep:   [m]float64{1, 1, 1},
		},
		{
			name: "skew accumulates",
			apply: func(f *Faults) {
				f.SkewClock(3, step)
				f.SkewClock(3, back)
				f.SkewClock(0, 1e-6)
			},
			keep: [m]float64{1, 1, 1},
			skew: [n]units.Seconds{1e-6, 0, 0, step + back},
		},
		{
			name: "failed TXs in index order",
			apply: func(f *Faults) {
				f.FailTX(3)
				f.FailTX(0)
				f.FailTX(2)
			},
			failed: []int{0, 2, 3},
			keep:   [m]float64{1, 1, 1},
		},
		{
			name: "dark row and shadowed column compose",
			apply: func(f *Faults) {
				f.FailTX(1)
				f.SetRXAttenuation(2, 0.25)
				f.SetRXAttenuation(0, 0.1)
			},
			failed: []int{1},
			keep:   [m]float64{0.1, 1, 0.25},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			f := NewFaults(n, m)
			tt.apply(f)
			if got := f.FailedTXs(); !reflect.DeepEqual(got, tt.failed) {
				t.Errorf("FailedTXs = %v, want %v", got, tt.failed)
			}
			for j := -1; j <= n; j++ {
				var want units.Seconds
				if j >= 0 && j < n {
					want = tt.skew[j]
				}
				if got := f.Skew(j); got != want {
					t.Errorf("Skew(%d) = %g, want %g", j, got.S(), want.S())
				}
			}

			clear := &channel.Matrix{N: n, M: m, H: make([][]float64, n)}
			for j := range clear.H {
				clear.H[j] = make([]float64, m)
				for i := range clear.H[j] {
					clear.H[j][i] = 1e-6 * (1 + float64(j) + 0.37*float64(i))
				}
			}
			dark := map[int]bool{}
			for _, j := range tt.failed {
				dark[j] = true
			}
			for j := 0; j < n; j++ {
				for i := 0; i < m; i++ {
					want := clear.H[j][i] * tt.keep[i]
					if dark[j] {
						want = 0
					}
					gain := f.Gain(clear, j, i)
					if math.Float64bits(gain) != math.Float64bits(want) {
						t.Errorf("Gain(%d, %d) = %g (signbit %v), want %g", j, i, gain, math.Signbit(gain), want)
					}
				}
			}
		})
	}
}
