package geom

import (
	"math"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVecArithmetic(t *testing.T) {
	a := V(1, 2, 3)
	b := V(4, -5, 6)
	if got := a.Add(b); got != V(5, -3, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != V(-3, 7, -3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != V(2, 4, 6) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != 1*4+2*-5+3*6 {
		t.Errorf("Dot = %v", got)
	}
}

func TestNormAndUnit(t *testing.T) {
	v := V(3, 4, 0)
	if v.Norm() != 5 {
		t.Errorf("Norm = %v", v.Norm())
	}
	if v.Norm2() != 25 {
		t.Errorf("Norm2 = %v", v.Norm2())
	}
	u := v.Unit()
	if !almostEq(u.Norm(), 1, 1e-12) {
		t.Errorf("Unit norm = %v", u.Norm())
	}
	if !(Vec{}).Unit().IsZero() {
		t.Error("Unit of zero vector should stay zero")
	}
}

func TestDist(t *testing.T) {
	if d := V(0, 0, 0).Dist(V(1, 1, 1)); !almostEq(d, math.Sqrt(3), 1e-12) {
		t.Errorf("Dist = %v", d)
	}
}
