// Package mobility models receiver motion. In the testbed the receivers
// ride OpenBuilds ACRO gantries that move them anywhere in the 3 m × 3 m
// floor; here the same role is played by trajectory models: fixed points,
// waypoint paths at constant speed, and bounded random waypoint motion.
package mobility

import (
	"fmt"
	"math"
	"math/rand"

	"densevlc/internal/geom"
	"densevlc/internal/units"
)

// MaxSpeed bounds a receiver's speed. 10 m/s is faster than a sprinting
// user and twenty times the ACRO gantries' top speed, so no receiver this
// system serves moves faster. The bound also keeps the random-waypoint
// model advancing: each leg of at most a few metres must take a time that
// still moves the clock, and at 1e300 m/s (or +Inf) a leg takes less time
// than the clock can add, so Position would never return.
const MaxSpeed units.MetersPerSecond = 10

// CheckSpeed reports whether v is a usable receiver speed: finite, not
// negative and at most MaxSpeed. A NaN fails every comparison, so it is
// refused explicitly.
func CheckSpeed(v units.MetersPerSecond) error {
	if math.IsNaN(v.MPerS()) || v < 0 || v > MaxSpeed {
		return fmt.Errorf("mobility: speed %g m/s is not in [0, %g]", v.MPerS(), MaxSpeed.MPerS())
	}
	return nil
}

// Trajectory yields a receiver's xy position at a given simulated time.
type Trajectory interface {
	Position(t units.Seconds) geom.Vec
}

// Static is a receiver that never moves.
type Static struct{ Pos geom.Vec }

// Position implements Trajectory.
func (s Static) Position(units.Seconds) geom.Vec { return s.Pos }

// Waypoints moves through a sequence of points at constant speed, holding
// the final point. With Loop set it cycles back to the start instead.
type Waypoints struct {
	Points []geom.Vec
	// Speed of travel (the ACRO gantry does ~0.1–0.5 m/s comfortably).
	Speed units.MetersPerSecond
	Loop  bool
}

// Position implements Trajectory.
func (w Waypoints) Position(t units.Seconds) geom.Vec {
	if len(w.Points) == 0 {
		return geom.Vec{}
	}
	if len(w.Points) == 1 || w.Speed <= 0 || t <= 0 {
		return w.Points[0]
	}

	// Segment lengths and total path length.
	pts := w.Points
	if w.Loop {
		pts = append(append([]geom.Vec(nil), pts...), pts[0])
	}
	total := 0.0
	for i := 1; i < len(pts); i++ {
		total += pts[i].Dist(pts[i-1])
	}
	if total == 0 {
		return pts[0]
	}

	dist := w.Speed.MPerS() * t.S()
	if w.Loop {
		dist = math.Mod(dist, total)
	} else if dist >= total {
		return pts[len(pts)-1]
	}

	for i := 1; i < len(pts); i++ {
		seg := pts[i].Dist(pts[i-1])
		if dist <= seg {
			if seg == 0 {
				return pts[i]
			}
			f := dist / seg
			return pts[i-1].Add(pts[i].Sub(pts[i-1]).Scale(f))
		}
		dist -= seg
	}
	return pts[len(pts)-1]
}

// Duration returns the time to traverse the full path once (infinite speed
// guards return 0).
func (w Waypoints) Duration() units.Seconds {
	if w.Speed <= 0 || len(w.Points) < 2 {
		return 0
	}
	pts := w.Points
	if w.Loop {
		pts = append(append([]geom.Vec(nil), pts...), pts[0])
	}
	total := 0.0
	for i := 1; i < len(pts); i++ {
		total += pts[i].Dist(pts[i-1])
	}
	return units.Seconds(total / w.Speed.MPerS())
}

// RandomWaypoint is the classic random-waypoint model bounded to a region:
// pick a uniform destination, travel at constant speed, repeat. Positions
// are generated lazily and deterministically from the RNG, so two
// trajectories with the same seed agree.
type RandomWaypoint struct {
	// Region bounds the motion (positions keep the given Z).
	XMin, YMin, XMax, YMax units.Meters
	Z                      units.Meters
	Speed                  units.MetersPerSecond

	rng     *rand.Rand
	curTime units.Seconds
	cur     geom.Vec
	dst     geom.Vec
}

// NewRandomWaypoint starts the model at a uniform position in the region.
func NewRandomWaypoint(rng *rand.Rand, xMin, yMin, xMax, yMax, z units.Meters, speed units.MetersPerSecond) *RandomWaypoint {
	r := &RandomWaypoint{
		XMin: xMin, YMin: yMin, XMax: xMax, YMax: yMax, Z: z, Speed: speed,
		rng: rng,
	}
	r.cur = r.draw()
	r.dst = r.draw()
	return r
}

func (r *RandomWaypoint) draw() geom.Vec {
	return geom.V(
		r.XMin.M()+r.rng.Float64()*(r.XMax.M()-r.XMin.M()),
		r.YMin.M()+r.rng.Float64()*(r.YMax.M()-r.YMin.M()),
		r.Z.M(),
	)
}

// Position implements Trajectory. Time must be non-decreasing across calls;
// earlier times return the current position.
func (r *RandomWaypoint) Position(t units.Seconds) geom.Vec {
	if r.Speed <= 0 {
		return r.cur
	}
	for t > r.curTime {
		dist := r.cur.Dist(r.dst)
		dt := (t - r.curTime).S()
		travel := r.Speed.MPerS() * dt
		if travel < dist {
			f := travel / dist
			r.cur = r.cur.Add(r.dst.Sub(r.cur).Scale(f))
			r.curTime = t
			break
		}
		// Arrive and pick the next destination.
		timeToArrive := units.Seconds(dist / r.Speed.MPerS())
		r.curTime += timeToArrive
		r.cur = r.dst
		r.dst = r.draw()
		if timeToArrive == 0 && r.cur == r.dst {
			// Degenerate draw; avoid spinning.
			r.curTime = t
			break
		}
	}
	return r.cur
}
