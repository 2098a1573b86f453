package geom

import (
	"math"
	"testing"
)

func TestRoomContainsAndClamp(t *testing.T) {
	r := Room{Width: 3, Depth: 3, Height: 2.8}
	if !r.Contains(V(1.5, 1.5, 1)) {
		t.Error("centre point should be inside")
	}
	if r.Contains(V(-0.1, 1, 1)) || r.Contains(V(1, 3.2, 1)) || r.Contains(V(1, 1, 3)) {
		t.Error("points outside each axis should be rejected")
	}
	got := r.Clamp(V(-1, 5, 99))
	if got != V(0, 3, 2.8) {
		t.Errorf("Clamp = %v", got)
	}
	if p := V(1, 2, 0.5); r.Clamp(p) != p {
		t.Error("Clamp must not move interior points")
	}
}

func TestCenteredGridMatchesPaperLayout(t *testing.T) {
	// The paper's 6x6 grid with 0.5 m spacing in a 3m x 3m room puts nodes
	// at 0.25, 0.75, ..., 2.75 on both axes, at ceiling height.
	room := Room{Width: 3, Depth: 3, Height: 2.8}
	g := CenteredGrid(room, 6, 6, 0.5, room.Height)
	if g.N() != 36 {
		t.Fatalf("N = %d, want 36", g.N())
	}
	if p := g.Pos(0); p != V(0.25, 0.25, 2.8) {
		t.Errorf("TX1 at %v, want (0.25,0.25,2.8)", p)
	}
	if p := g.Pos(35); p != V(2.75, 2.75, 2.8) {
		t.Errorf("TX36 at %v, want (2.75,2.75,2.8)", p)
	}
	// Row-major: TX8 of the paper (index 7) is the second node of row 2.
	if p := g.Pos(7); p != V(0.75, 0.75, 2.8) {
		t.Errorf("TX8 at %v, want (0.75,0.75,2.8)", p)
	}
}

func TestGridPositionsAgreeWithPos(t *testing.T) {
	g := Grid{Rows: 3, Cols: 4, Spacing: 0.5, Origin: V(1, 2, 3)}
	ps := g.Positions()
	if len(ps) != 12 {
		t.Fatalf("len = %d", len(ps))
	}
	for i, p := range ps {
		if p != g.Pos(i) {
			t.Errorf("Positions()[%d] = %v, Pos = %v", i, p, g.Pos(i))
		}
	}
}

func TestGridPosPanicsOutOfRange(t *testing.T) {
	g := Grid{Rows: 2, Cols: 2, Spacing: 1}
	for _, i := range []int{-1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Pos(%d) should panic", i)
				}
			}()
			g.Pos(i)
		}()
	}
}

func TestGridNearest(t *testing.T) {
	room := Room{Width: 3, Depth: 3, Height: 2.8}
	g := CenteredGrid(room, 6, 6, 0.5, room.Height)
	// A receiver at (0.92, 0.92) — RX1 of the paper's scenario 2 — is
	// closest to TX8 (index 7) at (0.75, 0.75).
	if got := g.Nearest(V(0.92, 0.92, 0)); got != 7 {
		t.Errorf("Nearest = TX%d, want TX8 (index 7)", got+1)
	}
	// Exactly under a node.
	if got := g.Nearest(V(2.75, 2.75, 0)); got != 35 {
		t.Errorf("Nearest corner = %d, want 35", got)
	}
}

func TestCenteredGridIsCentered(t *testing.T) {
	room := Room{Width: 4, Depth: 6, Height: 3}
	g := CenteredGrid(room, 3, 5, 0.5, 3)
	first, last := g.Pos(0), g.Pos(g.N()-1)
	cx := (first.X + last.X) / 2
	cy := (first.Y + last.Y) / 2
	if math.Abs(cx-2) > 1e-12 || math.Abs(cy-3) > 1e-12 {
		t.Errorf("grid centre = (%v,%v), want room centre (2,3)", cx, cy)
	}
}
