// Package optics implements the optical propagation models of DenseVLC:
// the Lambertian line-of-sight channel gain of Eq. (2), the photometric
// conversion to illuminance used by the illumination engine, and the
// single-bounce non-line-of-sight (NLOS) floor reflection that carries the
// synchronisation pilot between transmitters (Sec. 6.2).
//
// All positions are in metres (package geom); angles, areas, fluxes and
// delays carry their units.* types, so a degree/radian or mW/W slip fails
// the build (or the unitsafety lint) instead of skewing Eq. (2) silently.
package optics

import (
	"errors"
	"math"

	"densevlc/internal/geom"
	"densevlc/internal/units"
)

// Emitter describes an optical source: its pose and Lambertian emission
// pattern. Transmitters on the ceiling face straight down
// (Normal = (0,0,-1)) unless tilted.
type Emitter struct {
	Pos geom.Vec
	// Normal is the unit emission axis.
	Normal geom.Vec
	// Order is the dimensionless Lambertian mode number
	// m = −ln2/ln(cos φ½).
	Order float64
}

// NewDownwardEmitter returns an emitter at pos facing straight down with
// the Lambertian order derived from the half-power semi-angle.
func NewDownwardEmitter(pos geom.Vec, halfPowerSemiAngle units.Radians) Emitter {
	return Emitter{
		Pos:    pos,
		Normal: geom.V(0, 0, -1),
		Order:  LambertianOrder(halfPowerSemiAngle),
	}
}

// LambertianOrder returns m = −ln2 / ln(cos φ½), dimensionless.
func LambertianOrder(halfPowerSemiAngle units.Radians) float64 {
	return -math.Ln2 / math.Log(halfPowerSemiAngle.Cos())
}

// Detector describes an optical receiver: its pose, collection area,
// field of view and optics gain.
type Detector struct {
	Pos geom.Vec
	// Normal is the unit direction the photodiode faces. Receivers on the
	// table face up (Normal = (0,0,1)); the TX-mounted sync receivers face
	// down.
	Normal geom.Vec
	// Area is the photodiode collection area A_pd (1.1 mm² for the
	// Hamamatsu S5971 used in the paper).
	Area units.SquareMeters
	// FOV is the half-angle field of view Ψc; light at larger incidence
	// contributes nothing.
	FOV units.Radians
	// OpticsGain is the concentrator-and-filter gain g(ψ), assumed
	// angle-independent inside the FOV (the paper's g(ψ)). 1 means bare
	// photodiode.
	OpticsGain float64
}

// NewUpwardDetector returns a detector at pos facing straight up with the
// given area and field of view, with unit optics gain.
func NewUpwardDetector(pos geom.Vec, area units.SquareMeters, fov units.Radians) Detector {
	return Detector{Pos: pos, Normal: geom.V(0, 0, 1), Area: area, FOV: fov, OpticsGain: 1}
}

// Gain returns the line-of-sight channel DC gain H of Eq. (2) from e to d:
//
//	H = (m+1)·A_pd / (2π·d²) · cosᵐ(φ) · g(ψ) · cos(ψ),  0 ≤ ψ ≤ Ψc,
//
// and 0 outside the field of view, behind the emitter, or behind the
// detector. H is dimensionless: received optical power = H · transmitted
// optical power.
func Gain(e Emitter, d Detector) float64 {
	sep := d.Pos.Sub(e.Pos)
	dist2 := sep.Norm2()
	if dist2 == 0 {
		return 0
	}
	dir := sep.Unit()

	// Irradiation angle φ: between the emitter axis and the TX→RX ray.
	cosPhi := e.Normal.Dot(dir)
	if cosPhi <= 0 {
		return 0 // receiver is behind the emitting hemisphere
	}
	// Incidence angle ψ: between the detector axis and the RX→TX ray.
	cosPsi := d.Normal.Dot(dir.Scale(-1))
	if cosPsi <= 0 {
		return 0 // light arrives from behind the photodiode
	}
	// A field of view of π/2 or more admits every ray with cosψ > 0, so
	// the Acos test is skipped there without changing a result: for
	// 0 < c ≤ 1 Go's portable Acos(c) is π/2 − Asin(c), and Asin(c) ≥ 0
	// (for c ≤ 0.7 it is satan of a positive ratio, for c > 0.7 it is
	// π/2 − satan(√(1−c²)/c) with a ratio below 1.03, whose satan is below
	// 0.8), so the rounded difference is at most π/2 ≤ FOV. A NaN FOV fails
	// both comparisons and keeps the gain either way.
	if d.FOV.Rad() < math.Pi/2 && math.Acos(clamp1(cosPsi)) > d.FOV.Rad() {
		return 0
	}

	m := e.Order
	return (m + 1) * d.Area.M2() / (2 * math.Pi * dist2) *
		lambertPow(cosPhi, m) * d.OpticsGain * cosPsi
}

// lambertPow returns cosᵐφ, the Lambertian emission factor of Eq. (2),
// bit for bit equal to math.Pow(x, m). Inside the guard 2⁻⁸ ≤ x ≤ 1,
// 1 < m < 64 it runs Go's portable pow (every port but s390x) without its
// bookkeeping: m splits into yi + yf with |yf| ≤ ½ exactly as pow splits
// it, x^yf is the same Exp(yf·Log(x)), and x^yi multiplies in the same
// repeated squares of x by the bits of yi. pow keeps those squares as a
// mantissa in [½, 1) and a separate exponent (Frexp, Ldexp). Here every
// factor and partial product that reaches the result lies in [2⁻⁵¹², 16],
// so all stay normal; a product of normals rounds the same at any
// power-of-two scale, and pow's final Ldexp of a normal result is exact.
// Outside the guard it is math.Pow itself.
func lambertPow(x, m float64) float64 {
	if !(x >= 0x1p-8 && x <= 1 && m > 1 && m < 64) {
		return math.Pow(x, m)
	}
	yi, yf := math.Modf(m)
	a := 1.0
	if yf != 0 {
		if yf > 0.5 {
			yf--
			yi++
		}
		a = math.Exp(yf * math.Log(x))
	}
	for i := int(yi); i != 0; i >>= 1 {
		if i&1 == 1 {
			a *= x
		}
		x *= x
	}
	return a
}

func clamp1(c float64) float64 {
	if c > 1 {
		return 1
	}
	if c < -1 {
		return -1
	}
	return c
}

// Illuminance returns the illuminance produced at the detector plane point
// p (with surface normal n) by an emitter radiating the given total
// luminous flux. The axial luminous intensity of a Lambertian source of
// order m is I₀ = Φ·(m+1)/(2π) candela, and
//
//	E = I₀ · cosᵐ(φ) · cos(ψ) / d².
func Illuminance(e Emitter, flux units.Lumens, p, n geom.Vec) units.Lux {
	sep := p.Sub(e.Pos)
	dist2 := sep.Norm2()
	if dist2 == 0 {
		return 0
	}
	dir := sep.Unit()
	cosPhi := e.Normal.Dot(dir)
	if cosPhi <= 0 {
		return 0
	}
	cosPsi := n.Dot(dir.Scale(-1))
	if cosPsi <= 0 {
		return 0
	}
	i0 := units.LuminousIntensity(flux, e.Order)
	return units.Lux(i0.Cd() * lambertPow(cosPhi, e.Order) * cosPsi / dist2)
}

// FloorReflection models the floor as a grid of Lambertian reflector
// patches for single-bounce NLOS propagation.
type FloorReflection struct {
	// Reflectivity ρ of the floor surface, in [0, 1]. Typical indoor
	// values: 0.15 (dark carpet) to 0.8 (glossy tile).
	Reflectivity float64
	// Room bounds the reflecting floor plane (z = 0).
	Room geom.Room
	// Resolution is the number of patches per metre along each axis.
	// 20/m (5 cm patches) converges to <1% for the paper's geometry.
	Resolution int
	// Blocked optionally occludes individual bounce legs (emitter→patch or
	// patch→detector), modelling a person walking through the pilot's
	// reflection field (Sec. 9's NLOS-synchronisation discussion). Nil
	// means free space.
	Blocked func(from, to geom.Vec) bool
}

// Validate reports whether the reflection model is usable.
func (f FloorReflection) Validate() error {
	switch {
	case f.Reflectivity < 0 || f.Reflectivity > 1:
		return errors.New("optics: floor reflectivity must be in [0, 1]")
	case f.Resolution <= 0:
		return errors.New("optics: floor resolution must be positive")
	case f.Room.Width <= 0 || f.Room.Depth <= 0:
		return errors.New("optics: room must have positive floor area")
	}
	return nil
}

// Gain returns the single-bounce NLOS channel gain from e to d via the
// floor: each floor patch receives light per the Lambertian LOS model,
// re-emits ρ times that power as a first-order Lambertian source, and the
// detector collects per its own geometry. This is the path the NLOS
// synchronisation pilot takes from the leading TX down to the floor and
// back up to the neighbouring TXs' downward-facing photodiodes.
func (f FloorReflection) Gain(e Emitter, d Detector) float64 {
	if err := f.Validate(); err != nil {
		return 0
	}
	nx := int(f.Room.Width.M()*float64(f.Resolution) + 0.5)
	ny := int(f.Room.Depth.M()*float64(f.Resolution) + 0.5)
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	dx := f.Room.Width.M() / float64(nx)
	dy := f.Room.Depth.M() / float64(ny)
	patchArea := units.SquareMeters(dx * dy)

	up := geom.V(0, 0, 1)
	halfPi := units.Radians(math.Pi / 2)
	total := 0.0
	for iy := 0; iy < ny; iy++ {
		py := (float64(iy) + 0.5) * dy
		for ix := 0; ix < nx; ix++ {
			p := geom.V((float64(ix)+0.5)*dx, py, 0)
			if f.Blocked != nil && (f.Blocked(e.Pos, p) || f.Blocked(p, d.Pos)) {
				continue
			}

			// Leg 1: emitter to patch. The patch is a detector of area
			// patchArea facing up with hemispherical FOV.
			inc := Gain(e, Detector{
				Pos: p, Normal: up, Area: patchArea,
				FOV: halfPi, OpticsGain: 1,
			})
			if inc == 0 {
				continue
			}

			// Leg 2: patch to detector. The patch re-emits as an ideal
			// Lambertian source (order 1).
			out := Gain(Emitter{Pos: p, Normal: up, Order: 1}, d)
			if out == 0 {
				continue
			}
			total += inc * f.Reflectivity * out
		}
	}
	return total
}

// PathDelay returns the free-space propagation delay for the shortest NLOS
// path from e to d via the floor (down to the specular point and back up).
// Propagation delay is negligible against the sampling period in the
// paper's room (≈19 ns vs 1 µs) but the sync simulator accounts for it
// anyway.
func (f FloorReflection) PathDelay(e Emitter, d Detector) units.Seconds {
	// Mirror the detector below the floor; the straight line from the
	// emitter to the image crosses the floor at the specular point, and its
	// length equals the shortest bounce path.
	img := geom.V(d.Pos.X, d.Pos.Y, -d.Pos.Z)
	return units.Seconds(e.Pos.Dist(img) / units.SpeedOfLight.MPerS())
}
