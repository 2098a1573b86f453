package optics

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"densevlc/internal/geom"
	"densevlc/internal/units"
)

const (
	phiHalf = 15 * math.Pi / 180 // paper's half-power semi-angle
	apd     = 1.1e-6             // photodiode area, m² (Table 1)
	fov90   = math.Pi / 2        // receiver field of view (Table 1)
)

func paperEmitter(pos geom.Vec) Emitter   { return NewDownwardEmitter(pos, phiHalf) }
func paperDetector(pos geom.Vec) Detector { return NewUpwardDetector(pos, apd, fov90) }

func TestLambertianOrder(t *testing.T) {
	// m = −ln2/ln(cos 15°) ≈ 20.
	m := LambertianOrder(phiHalf)
	if math.Abs(m-20) > 0.5 {
		t.Errorf("order = %v, want ≈20", m)
	}
	// 60° gives the classic m = 1 (ideal Lambertian).
	if m := LambertianOrder(60 * math.Pi / 180); math.Abs(m-1) > 1e-12 {
		t.Errorf("order(60°) = %v, want 1", m)
	}
}

func TestGainAxial(t *testing.T) {
	// Directly below the emitter at distance d: H = (m+1)·A/(2π·d²).
	e := paperEmitter(geom.V(0, 0, 2))
	d := paperDetector(geom.V(0, 0, 0))
	want := (e.Order + 1) * apd / (2 * math.Pi * 4)
	if got := Gain(e, d); math.Abs(got-want) > 1e-12*want {
		t.Errorf("axial gain = %v, want %v", got, want)
	}
}

func TestGainHalfPowerAngle(t *testing.T) {
	// At the half-power semi-angle the emitted intensity halves; with the
	// receiver plane held perpendicular to the path the collected power
	// relative to an axial receiver at the same distance is 1/2.
	const dist = 2.0
	e := paperEmitter(geom.V(0, 0, 0))
	// Point at 15° off axis, same distance.
	x := dist * math.Sin(phiHalf)
	z := -dist * math.Cos(phiHalf)
	dAx := Detector{Pos: geom.V(0, 0, -dist), Normal: geom.V(0, 0, 1), Area: apd, FOV: fov90, OpticsGain: 1}
	// Face the off-axis detector back toward the emitter to isolate the
	// cosᵐ(φ) factor.
	dOff := Detector{Pos: geom.V(x, 0, z), Normal: geom.V(x, 0, z).Scale(-1).Unit(), Area: apd, FOV: fov90, OpticsGain: 1}
	ratio := Gain(e, dOff) / Gain(e, dAx)
	if math.Abs(ratio-0.5) > 0.01 {
		t.Errorf("half-power ratio = %v, want 0.5", ratio)
	}
}

func TestGainInverseSquare(t *testing.T) {
	e := paperEmitter(geom.V(0, 0, 4))
	g1 := Gain(e, paperDetector(geom.V(0, 0, 2))) // d = 2
	g2 := Gain(e, paperDetector(geom.V(0, 0, 0))) // d = 4
	if math.Abs(g1/g2-4) > 1e-9 {
		t.Errorf("inverse-square violated: ratio %v, want 4", g1/g2)
	}
}

func TestGainZeroCases(t *testing.T) {
	e := paperEmitter(geom.V(0, 0, 2))
	cases := []struct {
		name string
		d    Detector
	}{
		{"behind emitter", paperDetector(geom.V(0, 0, 3))},
		{"detector facing away", Detector{Pos: geom.V(0, 0, 0), Normal: geom.V(0, 0, -1), Area: apd, FOV: fov90, OpticsGain: 1}},
		{"outside FOV", Detector{Pos: geom.V(2, 0, 1.99), Normal: geom.V(0, 0, 1), Area: apd, FOV: 5 * math.Pi / 180, OpticsGain: 1}},
		{"coincident", paperDetector(geom.V(0, 0, 2))},
	}
	for _, c := range cases {
		if g := Gain(e, c.d); g != 0 {
			t.Errorf("%s: gain = %v, want 0", c.name, g)
		}
	}
}

func TestGainPaperMagnitude(t *testing.T) {
	// TX directly above an RX at 2 m (ceiling 2.8 m, table 0.8 m):
	// H = 21·1.1e-6/(2π·4) ≈ 9.2e-7. The SINR arithmetic of Sec. 4 only
	// works out if gains sit at this scale.
	e := paperEmitter(geom.V(1.25, 1.25, 2.8))
	d := paperDetector(geom.V(1.25, 1.25, 0.8))
	g := Gain(e, d)
	if g < 8e-7 || g < 0 || g > 1.1e-6 {
		t.Errorf("gain = %v, want ≈9.2e-7", g)
	}
}

func TestGainMonotoneWithLateralOffset(t *testing.T) {
	e := paperEmitter(geom.V(0, 0, 2))
	prev := math.Inf(1)
	for off := 0.0; off <= 1.5; off += 0.1 {
		g := Gain(e, paperDetector(geom.V(off, 0, 0)))
		if g > prev+1e-18 {
			t.Fatalf("gain increased with offset at %v m", off)
		}
		prev = g
	}
}

func TestGainSymmetry(t *testing.T) {
	e := paperEmitter(geom.V(1, 1, 2.8))
	f := func(dxRaw, dyRaw float64) bool {
		dx := math.Mod(math.Abs(dxRaw), 1.5)
		dy := math.Mod(math.Abs(dyRaw), 1.5)
		gp := Gain(e, paperDetector(geom.V(1+dx, 1+dy, 0)))
		gm := Gain(e, paperDetector(geom.V(1-dx, 1-dy, 0)))
		return math.Abs(gp-gm) <= 1e-12*(gp+1e-30)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestIlluminanceAxial(t *testing.T) {
	// E = Φ(m+1)/(2π d²) on axis.
	e := paperEmitter(geom.V(0, 0, 2))
	flux := units.Lumens(200)
	want := flux.Lm() * (e.Order + 1) / (2 * math.Pi * 4)
	got := Illuminance(e, flux, geom.V(0, 0, 0), geom.V(0, 0, 1))
	if math.Abs(got.Lx()-want) > 1e-9*want {
		t.Errorf("axial illuminance = %v, want %v", got, want)
	}
	// Facing away or behind → 0.
	if Illuminance(e, flux, geom.V(0, 0, 0), geom.V(0, 0, -1)) != 0 {
		t.Error("surface facing away should get no light")
	}
	if Illuminance(e, flux, geom.V(0, 0, 3), geom.V(0, 0, 1)) != 0 {
		t.Error("point above the emitter should get no light")
	}
	if Illuminance(e, flux, e.Pos, geom.V(0, 0, 1)) != 0 {
		t.Error("coincident point must not divide by zero")
	}
}

func TestFloorReflectionValidate(t *testing.T) {
	room := geom.Room{Width: 3, Depth: 3, Height: 2.8}
	good := FloorReflection{Reflectivity: 0.5, Room: room, Resolution: 10}
	if err := good.Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
	bad := []FloorReflection{
		{Reflectivity: -0.1, Room: room, Resolution: 10},
		{Reflectivity: 1.1, Room: room, Resolution: 10},
		{Reflectivity: 0.5, Room: room, Resolution: 0},
		{Reflectivity: 0.5, Room: geom.Room{}, Resolution: 10},
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("bad model %d accepted", i)
		}
	}
	if g := bad[0].Gain(paperEmitter(geom.V(1, 1, 2.8)), paperDetector(geom.V(2, 2, 0))); g != 0 {
		t.Error("invalid model should yield zero gain")
	}
}

func TestFloorReflectionNLOSGain(t *testing.T) {
	// Leading TX and a neighbouring TX's downward-facing sync receiver,
	// 0.5 m apart on the ceiling — the paper's synchronisation geometry.
	room := geom.Room{Width: 3, Depth: 3, Height: 2.8}
	f := FloorReflection{Reflectivity: 0.6, Room: room, Resolution: 15}
	e := paperEmitter(geom.V(1.25, 1.25, 2.8))
	d := Detector{Pos: geom.V(1.75, 1.25, 2.8), Normal: geom.V(0, 0, -1), Area: apd, FOV: fov90, OpticsGain: 1}
	g := f.Gain(e, d)
	if g <= 0 {
		t.Fatal("NLOS path should carry light")
	}
	// The bounce must be much weaker than a direct link at comparable
	// distance but strong enough to detect: sanity bounds spanning the
	// plausible range.
	direct := Gain(e, paperDetector(geom.V(1.25, 1.25, 0.8)))
	if g >= direct {
		t.Errorf("NLOS gain %v should be below direct LOS %v", g, direct)
	}
	if g < direct*1e-6 {
		t.Errorf("NLOS gain %v implausibly small vs LOS %v", g, direct)
	}
}

func TestFloorReflectionScalesWithReflectivity(t *testing.T) {
	room := geom.Room{Width: 3, Depth: 3, Height: 2.8}
	e := paperEmitter(geom.V(1.25, 1.25, 2.8))
	d := Detector{Pos: geom.V(1.75, 1.25, 2.8), Normal: geom.V(0, 0, -1), Area: apd, FOV: fov90, OpticsGain: 1}
	g1 := FloorReflection{Reflectivity: 0.3, Room: room, Resolution: 12}.Gain(e, d)
	g2 := FloorReflection{Reflectivity: 0.6, Room: room, Resolution: 12}.Gain(e, d)
	if math.Abs(g2/g1-2) > 1e-9 {
		t.Errorf("gain should be linear in reflectivity: %v vs %v", g1, g2)
	}
}

func TestFloorReflectionConverges(t *testing.T) {
	room := geom.Room{Width: 3, Depth: 3, Height: 2.8}
	e := paperEmitter(geom.V(1.25, 1.25, 2.8))
	d := Detector{Pos: geom.V(1.75, 1.25, 2.8), Normal: geom.V(0, 0, -1), Area: apd, FOV: fov90, OpticsGain: 1}
	coarse := FloorReflection{Reflectivity: 0.5, Room: room, Resolution: 10}.Gain(e, d)
	fine := FloorReflection{Reflectivity: 0.5, Room: room, Resolution: 40}.Gain(e, d)
	if math.Abs(coarse-fine)/fine > 0.05 {
		t.Errorf("patch integration not converged: %v vs %v", coarse, fine)
	}
}

func TestPathDelay(t *testing.T) {
	room := geom.Room{Width: 3, Depth: 3, Height: 2.8}
	f := FloorReflection{Reflectivity: 0.5, Room: room, Resolution: 10}
	e := paperEmitter(geom.V(1, 1, 2.8))
	d := Detector{Pos: geom.V(1.5, 1, 2.8), Normal: geom.V(0, 0, -1), Area: apd, FOV: fov90}
	delay := f.PathDelay(e, d)
	// Bounce path ≈ down 2.8 and back up with 0.5 lateral: ≈5.62 m → ~19 ns.
	want := math.Sqrt(0.5*0.5+5.6*5.6) / units.SpeedOfLight.MPerS()
	if math.Abs(delay.S()-want) > 1e-12 {
		t.Errorf("delay = %v, want %v", delay, want)
	}
}

func TestFloorReflectionOcclusion(t *testing.T) {
	room := geom.Room{Width: 3, Depth: 3, Height: 2}
	e := paperEmitter(geom.V(1.25, 1.25, 2))
	d := Detector{Pos: geom.V(1.75, 1.25, 2), Normal: geom.V(0, 0, -1), Area: apd, FOV: fov90, OpticsGain: 1}

	free := FloorReflection{Reflectivity: 0.4, Room: room, Resolution: 12}
	blockAll := free
	blockAll.Blocked = func(from, to geom.Vec) bool { return true }
	if blockAll.Gain(e, d) != 0 {
		t.Error("total occlusion should zero the bounce")
	}

	// Partial occlusion: a region of the floor is shadowed; the gain drops
	// but survives.
	partial := free
	partial.Blocked = func(from, to geom.Vec) bool {
		return to.Z == 0 && to.X > 1.3 && to.X < 1.7 // shadow the central strip
	}
	gFree := free.Gain(e, d)
	gPart := partial.Gain(e, d)
	if gPart >= gFree {
		t.Error("shadowing should reduce the gain")
	}
	if gPart <= 0 {
		t.Error("partial shadow should not kill the bounce")
	}
}

// refGain is Eq. (2) as written, with math.Acos for every field-of-view
// test and math.Pow for cosᵐφ. Gain must match it bit for bit.
func refGain(e Emitter, d Detector) float64 {
	sep := d.Pos.Sub(e.Pos)
	dist2 := sep.Norm2()
	if dist2 == 0 {
		return 0
	}
	dir := sep.Unit()
	cosPhi := e.Normal.Dot(dir)
	if cosPhi <= 0 {
		return 0
	}
	cosPsi := d.Normal.Dot(dir.Scale(-1))
	if cosPsi <= 0 {
		return 0
	}
	if math.Acos(clamp1(cosPsi)) > d.FOV.Rad() {
		return 0
	}
	m := e.Order
	return (m + 1) * d.Area.M2() / (2 * math.Pi * dist2) *
		math.Pow(cosPhi, m) * d.OpticsGain * cosPsi
}

// GainMismatch reports how Gain(e, d) differs from refGain(e, d) in its
// bits, or nil; two NaN gains count as equal. It is exported for the
// package's external tests, which build floors through scenario (an
// import cycle from here).
func GainMismatch(e Emitter, d Detector) error {
	got, want := Gain(e, d), refGain(e, d)
	if math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want) {
		return nil
	}
	return fmt.Errorf("Gain(%+v, %+v) = %v (%#x), reference %v (%#x)",
		e, d, got, math.Float64bits(got), want, math.Float64bits(want))
}

// TestLambertPowMatchesPow checks the Lambertian power against math.Pow bit
// for bit on both edges of its guard and on random bases and orders inside
// and around it, including integer and half-integer orders (pow's split
// moves yf > ½ up to the next integer).
func TestLambertPowMatchesPow(t *testing.T) {
	lo := 0x1p-8
	bases := []float64{1, math.Nextafter(1, 0), lo, math.Nextafter(lo, 0), math.Nextafter(lo, 1),
		0.5, 1e-3, 0x1p-17, 0x1p-20, 1e-10, 3e-7, 0, -0.5, 1.5, math.Inf(1), math.NaN(), math.SmallestNonzeroFloat64}
	orders := []float64{LambertianOrder(phiHalf), 1, math.Nextafter(1, 2), 1.5, math.Nextafter(1.5, 2),
		2, 20, 20.5, 63, 63.5, math.Nextafter(64, 0), 64, 70, 0.5, 0, -3}
	check := func(x, m float64) {
		got, want := lambertPow(x, m), math.Pow(x, m)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("lambertPow(%v, %v) = %v, math.Pow %v", x, m, got, want)
		}
	}
	for _, x := range bases {
		for _, m := range orders {
			check(x, m)
		}
	}
	// Below the guard the unscaled products reach subnormals and round
	// differently from pow's single Ldexp; without the fallback these differ.
	for _, p := range [][2]float64{
		{4.192477219628958e-21, 15.546576084732163},
		{1.864329073941002e-11, 28.775500050123277},
		{4.089519701524955e-06, 57.12816568119355},
	} {
		check(p[0], p[1])
	}
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 200000; i++ {
		x := math.Exp2(-9 * rng.Float64()) // straddles the 2⁻⁸ edge
		m := 70 * rng.Float64()
		if i%4 == 0 {
			m = math.Round(2*m) / 2 // integers and half-integers
		}
		check(x, m)
	}
}

// FuzzGainMatchesReference throws arbitrary poses, orders and fields of
// view at Gain; it must match refGain bit for bit (two NaNs count as
// equal). Normals are taken as given, unit or not: Gain never normalises
// them, so a cosine above 1 exercises the fallback outside the guard.
func FuzzGainMatchesReference(f *testing.F) {
	f.Add(1.25, 1.25, 2.8, 0.0, 0.0, -1.0, LambertianOrder(phiHalf), 1.5, 1.0, 0.8, 0.0, 0.0, 1.0, fov90)
	f.Add(0.0, 0.0, 2.0, 0.3, 0.0, -0.95, 63.7, 0.4, 0.1, 0.0, -0.2, 0.1, 0.97, 0.6)
	f.Add(0.0, 0.0, 0.0, 0x1p-8, 0.0, -1.0, 20.0, 2.0, 0.0, 0.0, -1.0, 0.0, 0.0, 1.0)
	f.Fuzz(func(t *testing.T, ex, ey, ez, enx, eny, enz, order, dx, dy, dz, dnx, dny, dnz, fov float64) {
		e := Emitter{Pos: geom.V(ex, ey, ez), Normal: geom.V(enx, eny, enz), Order: order}
		d := Detector{Pos: geom.V(dx, dy, dz), Normal: geom.V(dnx, dny, dnz), Area: apd, FOV: units.Radians(fov), OpticsGain: 1}
		if err := GainMismatch(e, d); err != nil {
			t.Fatal(err)
		}
	})
}
