package mobility

import (
	"math"
	"testing"

	"densevlc/internal/geom"
	"densevlc/internal/stats"
	"densevlc/internal/units"
)

func TestStatic(t *testing.T) {
	s := Static{Pos: geom.V(1, 2, 0)}
	if s.Position(0) != s.Pos || s.Position(100) != s.Pos {
		t.Error("static receiver moved")
	}
}

func TestCheckSpeed(t *testing.T) {
	for _, v := range []units.MetersPerSecond{0, 0.25, MaxSpeed} {
		if err := CheckSpeed(v); err != nil {
			t.Errorf("CheckSpeed(%g) = %v, want nil", v.MPerS(), err)
		}
	}
	for _, v := range []float64{-0.1, math.NaN(), math.Inf(1), math.Inf(-1), 1e300, math.Nextafter(MaxSpeed.MPerS(), 20)} {
		if err := CheckSpeed(units.MetersPerSecond(v)); err == nil {
			t.Errorf("CheckSpeed(%g) = nil, want an error", v)
		}
	}
	// At the bound the random-waypoint model still advances: an hour of
	// motion returns, inside the region.
	r := NewRandomWaypoint(stats.NewRand(1), 0, 0, 3, 3, 0, MaxSpeed)
	if p := r.Position(3600); p.X < 0 || p.X > 3 || p.Y < 0 || p.Y > 3 {
		t.Errorf("position after an hour at MaxSpeed %v left the region", p)
	}
}

func TestWaypointsInterpolation(t *testing.T) {
	w := Waypoints{
		Points: []geom.Vec{geom.V(0, 0, 0), geom.V(1, 0, 0), geom.V(1, 1, 0)},
		Speed:  0.5,
	}
	cases := []struct {
		t    units.Seconds
		want geom.Vec
	}{
		{0, geom.V(0, 0, 0)},
		{1, geom.V(0.5, 0, 0)},
		{2, geom.V(1, 0, 0)},
		{3, geom.V(1, 0.5, 0)},
		{4, geom.V(1, 1, 0)},
		{99, geom.V(1, 1, 0)}, // holds the final point
	}
	for _, c := range cases {
		got := w.Position(c.t)
		if got.Dist(c.want) > 1e-12 {
			t.Errorf("Position(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	if d := w.Duration(); math.Abs(d.S()-4) > 1e-12 {
		t.Errorf("Duration = %v, want 4", d)
	}
}

func TestWaypointsLoop(t *testing.T) {
	w := Waypoints{
		Points: []geom.Vec{geom.V(0, 0, 0), geom.V(1, 0, 0)},
		Speed:  1,
		Loop:   true,
	}
	// Path: 0→1→0, length 2, period 2 s.
	if got := w.Position(0.5); got.Dist(geom.V(0.5, 0, 0)) > 1e-12 {
		t.Errorf("t=0.5: %v", got)
	}
	if got := w.Position(1.5); got.Dist(geom.V(0.5, 0, 0)) > 1e-12 {
		t.Errorf("t=1.5 (returning): %v", got)
	}
	if got := w.Position(2.5); got.Dist(geom.V(0.5, 0, 0)) > 1e-12 {
		t.Errorf("t=2.5 (next lap): %v", got)
	}
}

func TestWaypointsDegenerate(t *testing.T) {
	if !(Waypoints{}).Position(5).IsZero() {
		t.Error("empty waypoints should return origin")
	}
	one := Waypoints{Points: []geom.Vec{geom.V(2, 2, 0)}, Speed: 1}
	if one.Position(10) != geom.V(2, 2, 0) {
		t.Error("single waypoint should be static")
	}
	zeroSpeed := Waypoints{Points: []geom.Vec{geom.V(1, 1, 0), geom.V(2, 2, 0)}}
	if zeroSpeed.Position(10) != geom.V(1, 1, 0) {
		t.Error("zero speed should hold the start")
	}
	samePoint := Waypoints{Points: []geom.Vec{geom.V(1, 1, 0), geom.V(1, 1, 0)}, Speed: 1}
	if samePoint.Position(5) != geom.V(1, 1, 0) {
		t.Error("zero-length path should hold position")
	}
	if (Waypoints{Points: []geom.Vec{geom.V(0, 0, 0)}, Speed: 1}).Duration() != 0 {
		t.Error("degenerate duration")
	}
}

func TestRandomWaypointStaysInRegion(t *testing.T) {
	rng := stats.NewRand(3)
	r := NewRandomWaypoint(rng, 0.4, 0.4, 2.6, 2.6, 0, 0.5)
	for tt := units.Seconds(0); tt < 600; tt += 0.5 {
		p := r.Position(tt)
		if p.X < 0.4-1e-9 || p.X > 2.6+1e-9 || p.Y < 0.4-1e-9 || p.Y > 2.6+1e-9 {
			t.Fatalf("t=%v: %v escaped the region", tt, p)
		}
		if p.Z != 0 {
			t.Fatalf("z drifted: %v", p)
		}
	}
}

func TestRandomWaypointMovesAtBoundedSpeed(t *testing.T) {
	rng := stats.NewRand(4)
	r := NewRandomWaypoint(rng, 0, 0, 3, 3, 0, 0.5)
	prev := r.Position(0)
	for tt := units.Seconds(0.1); tt < 100; tt += 0.1 {
		p := r.Position(tt)
		if d := p.Dist(prev); d > 0.5*0.1+1e-9 {
			t.Fatalf("t=%v: moved %v m in 0.1 s at 0.5 m/s", tt, d)
		}
		prev = p
	}
}

func TestRandomWaypointDeterministic(t *testing.T) {
	a := NewRandomWaypoint(stats.NewRand(7), 0, 0, 3, 3, 0, 0.5)
	b := NewRandomWaypoint(stats.NewRand(7), 0, 0, 3, 3, 0, 0.5)
	for tt := units.Seconds(0); tt < 50; tt += 1.3 {
		if a.Position(tt) != b.Position(tt) {
			t.Fatal("same seed should give the same trajectory")
		}
	}
}

func TestRandomWaypointActuallyCoversSpace(t *testing.T) {
	rng := stats.NewRand(8)
	r := NewRandomWaypoint(rng, 0, 0, 3, 3, 0, 1.0)
	seen := map[[2]int]bool{}
	for tt := units.Seconds(0); tt < 2000; tt += 1 {
		p := r.Position(tt)
		seen[[2]int{int(p.X), int(p.Y)}] = true
	}
	// 3×3 integer cells: expect most visited over a long run.
	if len(seen) < 6 {
		t.Errorf("trajectory visited only %d cells", len(seen))
	}
}

func TestRandomWaypointZeroSpeed(t *testing.T) {
	r := NewRandomWaypoint(stats.NewRand(9), 0, 0, 1, 1, 0, 0)
	p0 := r.Position(0)
	if r.Position(100) != p0 {
		t.Error("zero-speed walker moved")
	}
}
