// Package geom provides the small amount of 3-D geometry DenseVLC needs:
// vectors, points, and the room/grid layout of transmitters and receivers.
//
// Coordinates follow the paper's convention: x and y span the floor plane,
// z points up. Transmitters sit on the ceiling facing straight down (normal
// -z unless tilted); receivers sit on the floor or a table facing up
// (normal +z unless tilted).
//
// Vec is the raw linear-algebra substrate: its components are bare float64
// coordinates in metres, because vectors double as dimensionless directions
// (normals, unit rays) and typed components would poison every dot product.
// The configuration-level lengths — room extents, grid spacing, radii —
// carry units.Meters and cross into Vec math through their accessors.
package geom

import (
	"fmt"
	"math"
)

// Vec is a 3-D vector (or point) in metres.
type Vec struct {
	X, Y, Z float64
}

// V is shorthand for constructing a Vec.
func V(x, y, z float64) Vec { return Vec{X: x, Y: y, Z: z} }

// Add returns v + w.
func (v Vec) Add(w Vec) Vec { return Vec{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec) Sub(w Vec) Vec { return Vec{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s*v.
func (v Vec) Scale(s float64) Vec { return Vec{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the dot product v . w.
func (v Vec) Dot(w Vec) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm returns the Euclidean length of v.
func (v Vec) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Norm2 returns the squared Euclidean length of v.
func (v Vec) Norm2() float64 { return v.Dot(v) }

// Unit returns v normalised to unit length. The zero vector is returned
// unchanged so callers never divide by zero; angle computations treat a zero
// direction as "no line of sight".
func (v Vec) Unit() Vec {
	n := v.Norm()
	if n == 0 {
		return Vec{}
	}
	return v.Scale(1 / n)
}

// Dist returns the Euclidean distance between points v and w.
func (v Vec) Dist(w Vec) float64 { return v.Sub(w).Norm() }

// IsZero reports whether all components are exactly zero.
func (v Vec) IsZero() bool { return v == Vec{} }

// String implements fmt.Stringer.
func (v Vec) String() string {
	return fmt.Sprintf("(%.3f, %.3f, %.3f)", v.X, v.Y, v.Z)
}
