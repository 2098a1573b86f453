package optics_test

import (
	"math"
	"math/rand"
	"testing"

	"densevlc/internal/geom"
	"densevlc/internal/optics"
	"densevlc/internal/scenario"
	"densevlc/internal/units"
)

// TestGainMatchesReference pins Gain to textbook Eq. (2) (math.Pow for
// cosᵐφ, math.Acos for every field-of-view test) bit for bit on the
// geometries the simulator evaluates and on the edges of the Lambertian
// power's guard.
func TestGainMatchesReference(t *testing.T) {
	check := func(what string, e optics.Emitter, d optics.Detector) {
		t.Helper()
		if err := optics.GainMismatch(e, d); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	rng := rand.New(rand.NewSource(26))

	// Random receivers on the building-scale floors: every TX to each RX.
	for _, dims := range [][2]int{{15, 16}, {32, 32}} {
		set := scenario.FloorGrid(dims[0], dims[1])
		emitters := set.Emitters()
		for _, d := range set.Detectors(set.UniformRXs(rng, 100)) {
			for _, e := range emitters {
				check("floor", e, d)
			}
		}
	}

	// The NLOS bounce's two legs: a TX down to an upward floor patch with a
	// hemispherical FOV, and the patch (an order-1 reflector) up to a
	// downward TX-mounted photodiode.
	tx := optics.NewDownwardEmitter(geom.V(1.25, 1.25, 2.8), 15*math.Pi/180)
	sync := optics.Detector{Pos: geom.V(1.75, 1.25, 2.8), Normal: geom.V(0, 0, -1), Area: 1.1e-6, FOV: math.Pi / 2, OpticsGain: 1}
	for iy := 0; iy < 60; iy++ {
		for ix := 0; ix < 60; ix++ {
			p := geom.V((float64(ix)+0.5)*0.05, (float64(iy)+0.5)*0.05, 0)
			check("NLOS leg 1", tx, optics.Detector{Pos: p, Normal: geom.V(0, 0, 1), Area: 0.0025, FOV: math.Pi / 2, OpticsGain: 1})
			check("NLOS leg 2", optics.Emitter{Pos: p, Normal: geom.V(0, 0, 1), Order: 1}, sync)
		}
	}

	// Tilted emitters and detectors, fields of view on both sides of π/2
	// (below it the Acos test stays live) and orders on both sides of the
	// guard.
	// tilt returns a unit vector up to maxRad off the z axis, on the side
	// the sign of z gives.
	tilt := func(z, maxRad float64) geom.Vec {
		th, az := maxRad*rng.Float64(), 2*math.Pi*rng.Float64()
		return geom.V(math.Sin(th)*math.Cos(az), math.Sin(th)*math.Sin(az), z*math.Cos(th))
	}
	for i := 0; i < 20000; i++ {
		e := optics.Emitter{
			Pos:    geom.V(3*rng.Float64(), 3*rng.Float64(), 2.8),
			Normal: tilt(-1, math.Pi/3),
			Order:  70 * rng.Float64(),
		}
		d := optics.Detector{
			Pos:        geom.V(3*rng.Float64(), 3*rng.Float64(), 0.8*rng.Float64()),
			Normal:     tilt(1, math.Pi/3),
			Area:       1.1e-6,
			FOV:        units.Radians(3 * math.Pi / 4 * rng.Float64()),
			OpticsGain: 1 + rng.Float64(),
		}
		check("tilted", e, d)
	}

	// cosφ planted exactly: the ray runs along +x (a power-of-two distance
	// makes its unit vector exact), so cosφ is the emitter normal's x.
	lo := 0x1p-8
	for _, c := range []float64{1, math.Nextafter(1, 0), math.Nextafter(lo, 1), lo, math.Nextafter(lo, 0)} {
		for _, m := range []float64{optics.LambertianOrder(15 * math.Pi / 180), 1, 1.5, 20, 63.9, 64} {
			e := optics.Emitter{Normal: geom.V(c, 0, -math.Sqrt(1-c*c)), Order: m}
			for _, fov := range []units.Radians{math.Pi / 2, math.Pi / 3} {
				d := optics.Detector{Pos: geom.V(2, 0, 0), Normal: geom.V(-1, 0, 0), Area: 1.1e-6, FOV: fov, OpticsGain: 1}
				if got := e.Normal.Dot(d.Pos.Sub(e.Pos).Unit()); got != c {
					t.Fatalf("planted cosφ = %v, want %v", got, c)
				}
				check("planted cosφ", e, d)
			}
		}
	}
}
