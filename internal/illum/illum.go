// Package illum computes spatial illuminance distributions and the
// uniformity metrics DenseVLC must satisfy.
//
// The paper requires (ISO 8995-1, indoor office premises) an average
// illuminance of at least 500 lux and a uniformity — the ratio of minimum to
// average illuminance — of at least 70% inside the area of interest
// (Fig. 5: a 2.2 m × 2.2 m region centred in the 3 m × 3 m room achieves
// 564 lux at 74% uniformity from the 6×6 grid).
//
// Because Manchester coding keeps the average LED brightness identical in
// both operating modes (Sec. 3.3), the illuminance map is independent of the
// communication allocation — the property that lets DenseVLC re-allocate
// power without flicker or uniformity changes. Tests assert this invariance.
package illum

import (
	"errors"
	"fmt"
	"math"

	"densevlc/internal/geom"
	"densevlc/internal/optics"
	"densevlc/internal/units"
)

// ISO 8995-1 requirements for indoor office premises.
const (
	// MinAverageLux is the minimum maintained average illuminance.
	MinAverageLux units.Lux = 500
	// MinUniformity is the minimum ratio of minimum to average illuminance.
	MinUniformity = 0.70
)

// Map is a sampled illuminance distribution over a rectangular region of the
// work plane.
type Map struct {
	// X0, Y0 are the coordinates of sample (0, 0).
	X0, Y0 units.Meters
	// Step is the sample spacing.
	Step units.Meters
	// Lux holds samples in row-major order, Lux[iy][ix].
	Lux [][]units.Lux
}

// Config drives a map computation.
type Config struct {
	// Emitters are the luminaires, with per-emitter luminous flux.
	Emitters []optics.Emitter
	Flux     []units.Lumens
	// PlaneZ is the work-plane height (0.8 m table in the simulations,
	// floor-level receivers in the testbed).
	PlaneZ units.Meters
	// Region is the rectangle of the work plane to sample.
	Region Region
	// Step is the sample spacing; 0 defaults to 0.05 m.
	Step units.Meters
}

// Region is an axis-aligned rectangle [X0, X1] × [Y0, Y1] on the work plane.
type Region struct {
	X0, Y0, X1, Y1 units.Meters
}

// CenteredRegion returns a w × h region centred within the room footprint.
func CenteredRegion(room geom.Room, w, h units.Meters) Region {
	return Region{
		X0: (room.Width - w) / 2,
		Y0: (room.Depth - h) / 2,
		X1: (room.Width + w) / 2,
		Y1: (room.Depth + h) / 2,
	}
}

// Compute samples the illuminance produced by cfg.Emitters over cfg.Region.
func Compute(cfg Config) (*Map, error) {
	if len(cfg.Emitters) != len(cfg.Flux) {
		return nil, fmt.Errorf("illum: %d emitters but %d flux values", len(cfg.Emitters), len(cfg.Flux))
	}
	if cfg.Region.X1 <= cfg.Region.X0 || cfg.Region.Y1 <= cfg.Region.Y0 {
		return nil, errors.New("illum: empty region")
	}
	step := cfg.Step
	if step <= 0 {
		step = 0.05
	}
	nx := int((cfg.Region.X1.M()-cfg.Region.X0.M())/step.M()) + 1
	ny := int((cfg.Region.Y1.M()-cfg.Region.Y0.M())/step.M()) + 1

	m := &Map{X0: cfg.Region.X0, Y0: cfg.Region.Y0, Step: step, Lux: make([][]units.Lux, ny)}
	up := geom.V(0, 0, 1)
	for iy := 0; iy < ny; iy++ {
		row := make([]units.Lux, nx)
		y := cfg.Region.Y0.M() + float64(iy)*step.M()
		for ix := 0; ix < nx; ix++ {
			p := geom.V(cfg.Region.X0.M()+float64(ix)*step.M(), y, cfg.PlaneZ.M())
			var e units.Lux
			for k, em := range cfg.Emitters {
				e += optics.Illuminance(em, cfg.Flux[k], p, up)
			}
			row[ix] = e
		}
		m.Lux[iy] = row
	}
	return m, nil
}

// Stats summarises an illuminance map.
type Stats struct {
	Average    units.Lux
	Min        units.Lux
	Max        units.Lux
	Uniformity float64 // Min / Average, dimensionless
}

// Stats computes the summary metrics of the map.
func (m *Map) Stats() Stats {
	var s Stats
	s.Min = units.Lux(math.Inf(1))
	n := 0
	for _, row := range m.Lux {
		for _, v := range row {
			s.Average += v
			if v < s.Min {
				s.Min = v
			}
			if v > s.Max {
				s.Max = v
			}
			n++
		}
	}
	if n == 0 {
		s.Min = 0
		return s
	}
	s.Average /= units.Lux(n)
	if s.Average > 0 {
		s.Uniformity = s.Min.Lx() / s.Average.Lx()
	}
	return s
}

// CompliesISO8995 reports whether the map satisfies the ISO 8995-1 office
// requirements (≥500 lux average, ≥70% uniformity).
func (s Stats) CompliesISO8995() bool {
	return s.Average >= MinAverageLux && s.Uniformity >= MinUniformity
}
