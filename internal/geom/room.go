package geom

import (
	"fmt"
	"math"

	"densevlc/internal/units"
)

// Room describes the rectangular indoor deployment volume: x in [0, Width],
// y in [0, Depth], floor at z = 0, ceiling at z = Height.
type Room struct {
	Width  units.Meters // extent along x
	Depth  units.Meters // extent along y
	Height units.Meters // ceiling height
}

// Contains reports whether point p lies within the room (inclusive bounds).
func (r Room) Contains(p Vec) bool {
	return p.X >= 0 && p.X <= r.Width.M() &&
		p.Y >= 0 && p.Y <= r.Depth.M() &&
		p.Z >= 0 && p.Z <= r.Height.M()
}

// Clamp returns p with each coordinate clamped to the room bounds.
func (r Room) Clamp(p Vec) Vec {
	return Vec{
		X: clamp(p.X, 0, r.Width.M()),
		Y: clamp(p.Y, 0, r.Depth.M()),
		Z: clamp(p.Z, 0, r.Height.M()),
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Grid describes a regular rows x cols array of transmitters mounted at
// a common height, as in the paper's 6x6 ceiling deployment with 0.5 m
// inter-node spacing.
type Grid struct {
	Rows, Cols int
	// Spacing is the inter-node distance (0.5 m in the paper).
	Spacing units.Meters
	// Origin is the position of node (0,0); remaining nodes extend in +x
	// (columns) and +y (rows).
	Origin Vec
}

// N returns the number of grid nodes.
func (g Grid) N() int { return g.Rows * g.Cols }

// Pos returns the position of node i in row-major order: TX1 of the paper is
// index 0 at the origin corner, indices increase along x first.
func (g Grid) Pos(i int) Vec {
	if i < 0 || i >= g.N() {
		//lint:ignore apipanic bounds invariant, same contract as slice indexing
		panic(fmt.Sprintf("geom: grid index %d out of range [0,%d)", i, g.N()))
	}
	row := i / g.Cols
	col := i % g.Cols
	return g.Origin.Add(Vec{X: float64(col) * g.Spacing.M(), Y: float64(row) * g.Spacing.M()})
}

// Positions returns the positions of all nodes in row-major order.
func (g Grid) Positions() []Vec {
	out := make([]Vec, g.N())
	for i := range out {
		out[i] = g.Pos(i)
	}
	return out
}

// Nearest returns the index of the grid node closest to p (distance measured
// in the xy-plane, since grid nodes share a height).
func (g Grid) Nearest(p Vec) int {
	best, bestD := 0, math.Inf(1)
	for i := 0; i < g.N(); i++ {
		q := g.Pos(i)
		d := (q.X-p.X)*(q.X-p.X) + (q.Y-p.Y)*(q.Y-p.Y)
		if d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// CenteredGrid builds a rows x cols grid with the given spacing centred in
// the xy-plane of the room at height z. The paper's deployment is a 6x6 grid
// with 0.5 m spacing centred in a 3m x 3m room: nodes at 0.25, 0.75, ... 2.75.
func CenteredGrid(room Room, rows, cols int, spacing, z units.Meters) Grid {
	w := float64(cols-1) * spacing.M()
	d := float64(rows-1) * spacing.M()
	return Grid{
		Rows:    rows,
		Cols:    cols,
		Spacing: spacing,
		Origin:  Vec{X: (room.Width.M() - w) / 2, Y: (room.Depth.M() - d) / 2, Z: z.M()},
	}
}
