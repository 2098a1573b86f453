package channel

import (
	"math"
	"testing"
	"testing/quick"

	"densevlc/internal/geom"
	"densevlc/internal/optics"
	"densevlc/internal/units"
)

func paperParams() Params {
	return Params{
		NoiseDensity:       7.02e-23,
		Bandwidth:          1e6,
		Responsivity:       0.40,
		WallPlugEfficiency: 0.40,
		DynamicResistance:  0.074420 / (0.450 * 0.450),
	}
}

const (
	apd     = 1.1e-6
	fov     = math.Pi / 2
	phiHalf = 15 * math.Pi / 180
)

func TestParamsValidate(t *testing.T) {
	if err := paperParams().Validate(); err != nil {
		t.Fatalf("paper params invalid: %v", err)
	}
	bad := []func(*Params){
		func(p *Params) { p.NoiseDensity = 0 },
		func(p *Params) { p.Bandwidth = -1 },
		func(p *Params) { p.Responsivity = 0 },
		func(p *Params) { p.WallPlugEfficiency = 0 },
		func(p *Params) { p.DynamicResistance = 0 },
	}
	for i, mut := range bad {
		p := paperParams()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestNoisePower(t *testing.T) {
	p := paperParams()
	if got := p.NoisePower(); math.Abs(got.A2()-7.02e-17) > 1e-25 {
		t.Errorf("N0·B = %v, want 7.02e-17", got)
	}
}

func TestBuildMatrixAndAccessors(t *testing.T) {
	emitters := []optics.Emitter{
		optics.NewDownwardEmitter(geom.V(1, 1, 2.8), phiHalf),
		optics.NewDownwardEmitter(geom.V(2, 1, 2.8), phiHalf),
	}
	dets := []optics.Detector{
		optics.NewUpwardDetector(geom.V(1, 1, 0.8), apd, fov),
	}
	m := BuildMatrix(emitters, dets, nil)
	if m.N != 2 || m.M != 1 {
		t.Fatalf("dims %dx%d", m.N, m.M)
	}
	if m.Gain(0, 0) <= m.Gain(1, 0) {
		t.Error("axial TX should out-gain the offset TX")
	}
	if m.BestTX(0) != 0 {
		t.Errorf("BestTX = %d", m.BestTX(0))
	}
	col := m.Column(0)
	if len(col) != 2 || col[0] != m.Gain(0, 0) {
		t.Errorf("Column = %v", col)
	}
	c := m.Clone()
	c.H[0][0] = 42
	if m.H[0][0] == 42 {
		t.Error("Clone should be deep")
	}
}

func TestBestTXEmpty(t *testing.T) {
	m := NewMatrix(3, 1)
	if m.BestTX(0) != -1 {
		t.Error("all-zero column should report -1")
	}
}

func TestBuildMatrixWithBlocker(t *testing.T) {
	emitters := []optics.Emitter{optics.NewDownwardEmitter(geom.V(1, 1, 2.8), phiHalf)}
	dets := []optics.Detector{optics.NewUpwardDetector(geom.V(1, 1, 0.8), apd, fov)}
	b := DiskBlocker{Center: geom.V(1, 1, 1.5), Radius: 0.2}
	m := BuildMatrix(emitters, dets, b)
	if m.Gain(0, 0) != 0 {
		t.Error("blocked link should be zero")
	}
	bOff := DiskBlocker{Center: geom.V(2.5, 2.5, 1.5), Radius: 0.2}
	m = BuildMatrix(emitters, dets, bOff)
	if m.Gain(0, 0) == 0 {
		t.Error("unblocked link should be nonzero")
	}
}

func TestDiskBlockerGeometry(t *testing.T) {
	b := DiskBlocker{Center: geom.V(0, 0, 1), Radius: 0.5}
	cases := []struct {
		from, to geom.Vec
		want     bool
	}{
		{geom.V(0, 0, 2), geom.V(0, 0, 0), true},        // straight through centre
		{geom.V(0.49, 0, 2), geom.V(0.49, 0, 0), true},  // inside radius
		{geom.V(0.51, 0, 2), geom.V(0.51, 0, 0), false}, // just outside
		{geom.V(0, 0, 2), geom.V(0, 0, 1.5), false},     // segment ends above the disk
		{geom.V(0, 0, 0.5), geom.V(1, 0, 0.5), false},   // parallel to plane
		{geom.V(-1, 0, 2), geom.V(1, 0, 0), true},       // oblique through disk
		{geom.V(-1, 0, 2), geom.V(1, 0, 1.99), false},   // oblique missing plane inside segment
	}
	for i, c := range cases {
		if got := b.Blocked(c.from, c.to); got != c.want {
			t.Errorf("case %d: Blocked = %v, want %v", i, got, c.want)
		}
	}
}

func TestSwingsHelpers(t *testing.T) {
	s := NewSwings(2, 3)
	s[0][0], s[0][2] = 0.4, 0.2
	s[1][1] = 0.9
	if got := s.TXTotal(0); math.Abs(got.A()-0.6) > 1e-15 {
		t.Errorf("TXTotal = %v", got)
	}
	r := units.Ohms(0.3675)
	// P = r·(0.6/2)² + r·(0.9/2)².
	want := r.Ohms()*0.09 + r.Ohms()*0.2025
	if got := s.CommPower(r); math.Abs(got.W()-want) > 1e-12 {
		t.Errorf("CommPower = %v, want %v", got, want)
	}
	c := s.Clone()
	c[0][0] = 99
	if s[0][0] == 99 {
		t.Error("Clone should be deep")
	}
	if NewSwings(0, 0).Clone() != nil && len(NewSwings(0, 0).Clone()) != 0 {
		t.Error("empty clone")
	}
}

// twoTXtwoRX builds a symmetric 2-TX / 2-RX instance: TX j directly above
// RX j, cross links weaker.
func twoTXtwoRX() (*Matrix, Params) {
	emitters := []optics.Emitter{
		optics.NewDownwardEmitter(geom.V(1, 1, 2.8), phiHalf),
		optics.NewDownwardEmitter(geom.V(2, 1, 2.8), phiHalf),
	}
	dets := []optics.Detector{
		optics.NewUpwardDetector(geom.V(1, 1, 0.8), apd, fov),
		optics.NewUpwardDetector(geom.V(2, 1, 0.8), apd, fov),
	}
	return BuildMatrix(emitters, dets, nil), paperParams()
}

func TestSINRSingleLinkMatchesHandComputation(t *testing.T) {
	h, p := twoTXtwoRX()
	s := NewSwings(2, 2)
	s[0][0] = 0.9 // TX0 serves RX0 at full swing

	sinr := SINR(p, h, s)
	c := p.Responsivity.APerW() * p.WallPlugEfficiency * p.DynamicResistance.Ohms()
	sig := c * h.Gain(0, 0) * 0.45 * 0.45
	want := sig * sig / p.NoisePower().A2()
	if math.Abs(sinr[0]-want) > 1e-9*want {
		t.Errorf("SINR[0] = %v, want %v", sinr[0], want)
	}
	// RX1 receives only interference → zero SINR.
	if sinr[1] != 0 {
		t.Errorf("SINR[1] = %v, want 0", sinr[1])
	}
}

func TestSINRPaperMagnitude(t *testing.T) {
	// One full-swing TX directly overhead at 2 m gives SINR of order 1–2
	// and therefore ≈1–1.5 Mbit/s at B = 1 MHz — the per-RX scale of
	// Fig. 8 at low budget.
	h, p := twoTXtwoRX()
	s := NewSwings(2, 2)
	s[0][0] = 0.9
	sinr := SINR(p, h, s)
	if sinr[0] < 0.5 || sinr[0] > 5 {
		t.Errorf("axial full-swing SINR = %v, expected order 1", sinr[0])
	}
	tput := Throughput(p, sinr)
	if tput[0].Bps() < 0.5e6 || tput[0].Bps() > 3e6 {
		t.Errorf("throughput = %v, expected ≈1–2 Mbit/s", tput[0])
	}
}

func TestSINRInterferenceReducesRate(t *testing.T) {
	h, p := twoTXtwoRX()

	// Alone.
	alone := NewSwings(2, 2)
	alone[0][0] = 0.9
	s0 := SINR(p, h, alone)[0]

	// With the other TX serving the other RX (cross-interference).
	both := NewSwings(2, 2)
	both[0][0] = 0.9
	both[1][1] = 0.9
	s1 := SINR(p, h, both)[0]

	if s1 >= s0 {
		t.Errorf("interference should reduce SINR: %v → %v", s0, s1)
	}
	if s1 <= 0 {
		t.Error("moderate interference should not null the link")
	}
}

func TestSINRMoreSignalPowerHelps(t *testing.T) {
	h, p := twoTXtwoRX()
	f := func(rawA, rawB float64) bool {
		a := math.Mod(math.Abs(rawA), 0.9)
		b := math.Mod(math.Abs(rawB), 0.9)
		if a > b {
			a, b = b, a
		}
		sa := NewSwings(2, 2)
		sa[0][0] = units.Amperes(a)
		sb := NewSwings(2, 2)
		sb[0][0] = units.Amperes(b)
		return SINR(p, h, sa)[0] <= SINR(p, h, sb)[0]+1e-18
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSINRDimensionMismatchPanics(t *testing.T) {
	h, p := twoTXtwoRX()
	defer func() {
		if recover() == nil {
			t.Error("mismatched swings should panic")
		}
	}()
	SINR(p, h, NewSwings(3, 2))
}

func TestThroughputAndObjective(t *testing.T) {
	p := paperParams()
	sinr := []float64{1, 3}
	tput := Throughput(p, sinr)
	if math.Abs(tput[0].Bps()-1e6) > 1 || math.Abs(tput[1].Bps()-2e6) > 1 {
		t.Errorf("Throughput = %v", tput)
	}
	want := math.Log(1e6) + math.Log(2e6)
	if got := SumLogThroughput(p, sinr); math.Abs(got-want) > 1e-9 {
		t.Errorf("SumLogThroughput = %v, want %v", got, want)
	}
	// A starved receiver drives the proportional-fair objective to −Inf.
	if got := SumLogThroughput(p, []float64{1, 0}); !math.IsInf(got, -1) {
		t.Errorf("starved receiver objective = %v, want -Inf", got)
	}
}
