package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"densevlc/internal/channel"
	"densevlc/internal/clock"
	"densevlc/internal/geom"
	"densevlc/internal/stats"
	"densevlc/internal/testutil"
)

// TestIncrementalVsScratchMover is the geometry-level equivalence property:
// after any sequence of single-receiver moves, the Mover's incrementally
// maintained environment is bit-identical to Setup.Env built from scratch
// at the current positions.
func TestIncrementalVsScratchMover(t *testing.T) {
	rng := stats.NewRand(61)
	setup := Default()
	pos := setup.UniformRXs(rng, 5)
	mv := setup.NewMover(pos, nil)

	for step := 0; step < 40; step++ {
		i := rng.Intn(len(pos))
		p := geom.V(rng.Float64()*setup.Room.Width.M(), rng.Float64()*setup.Room.Depth.M(), 0)
		mv.MoveRX(i, p)
		pos[i] = p

		want := setup.Env(pos, nil)
		got := mv.Env()
		for j := 0; j < want.H.N; j++ {
			for k := 0; k < want.H.M; k++ {
				if got.H.H[j][k] != want.H.H[j][k] {
					t.Fatalf("step %d: H[%d][%d] = %v incrementally, %v from scratch",
						step, j, k, got.H.H[j][k], want.H.H[j][k])
				}
			}
		}
		if got := mv.Pos(i); got != p {
			t.Fatalf("step %d: Pos(%d) = %v, want %v", step, i, got, p)
		}
	}
}

func TestMoverEnvPointerIsStable(t *testing.T) {
	setup := Default()
	mv := setup.NewMover([]geom.Vec{geom.V(1, 1, 0)}, nil)
	env := mv.Env()
	mv.MoveRX(0, geom.V(2, 2, 0))
	if mv.Env() != env {
		t.Fatal("MoveRX replaced the environment; callers hold the pointer across moves")
	}
	if len(mv.Positions()) != 1 {
		t.Fatalf("Positions() has %d entries, want 1", len(mv.Positions()))
	}
}

// TestMoveRXIsAllocationFree pins the steady-state cost of a receiver move
// at zero heap allocations: the deferred mark, the serial refresh behind
// Env below the fan-out, and the medium's move with its inline refresh.
func TestMoveRXIsAllocationFree(t *testing.T) {
	rng := stats.NewRand(67)
	setup := Default()
	rx := setup.UniformRXs(rng, 4)
	mv := setup.NewMover(rx, nil)
	a, b := geom.V(1.5, 1.5, 0), geom.V(1.6, 1.5, 0)
	flip := false
	next := func() geom.Vec {
		if flip = !flip; flip {
			return a
		}
		return b
	}
	if n := testing.AllocsPerRun(100, func() { mv.MoveRX(2, next()) }); n != 0 {
		t.Errorf("MoveRX allocates %.1f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { mv.MoveRX(2, next()); mv.Env() }); n != 0 {
		t.Errorf("MoveRX plus Env allocates %.1f times, want 0", n)
	}
	md := NewMedium(setup, rx, clock.MethodNLOSVLC, 0)
	if n := testing.AllocsPerRun(100, func() { md.Move(2, next()) }); n != 0 {
		t.Errorf("Medium.Move allocates %.1f times, want 0", n)
	}
}

// TestMoveRXDefersTheRefresh pins the deferred contract: a move reaches H
// only through Env, and a bitwise-unchanged position marks nothing.
func TestMoveRXDefersTheRefresh(t *testing.T) {
	setup := Default()
	rx := []geom.Vec{geom.V(1, 1, 0), geom.V(2, 2, 0)}
	mv := setup.NewMover(rx, nil)
	h := mv.Env().H
	before := h.H[0][1]
	mv.MoveRX(1, geom.V(0.3, 2.7, 0))
	if h.H[0][1] != before {
		t.Fatal("MoveRX refreshed H before Env was called")
	}
	if mv.Env().H.H[0][1] == before {
		t.Fatal("Env did not refresh the moved column")
	}
	mv.MoveRX(0, mv.Pos(0))
	mv.MoveRX(1, mv.Pos(1))
	if mv.npend != 0 {
		t.Fatalf("%d columns pending after moves to the same positions, want 0", mv.npend)
	}
}

// TestIncrementalVsScratchMoverBatch is the equivalence property of the
// deferred, batched refresh: after any batch of moves — several receivers,
// one receiver moved twice, a bitwise-unchanged position — one Env call
// leaves H bit-identical to Setup.Env built from scratch at the current
// positions, with and without a blocker, with the pending work below and
// above the fan-out constant, on one core and on two. No goroutine outlives
// the refresh.
func TestIncrementalVsScratchMoverBatch(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	setup := FloorGrid(15, 16)
	n := setup.Grid.N()
	const fleet = 60
	below := refreshFanOut/n - 1
	above := (refreshFanOut + n - 1) / n
	if below*n >= refreshFanOut || above*n < refreshFanOut || above > fleet {
		t.Fatalf("batch sizes %d and %d do not straddle the fan-out at N = %d", below, above, n)
	}
	// The blocker hangs half-way between the ceiling and the receivers.
	disk := channel.DiskBlocker{
		Center: geom.V(setup.Room.Width.M()/2, setup.Room.Depth.M()/2, (setup.Room.Height.M()+setup.RXPlaneZ.M())/2),
		Radius: 1.5,
	}
	for _, procs := range []int{1, 2} {
		for _, blocker := range []channel.Blocker{nil, disk} {
			t.Run(fmt.Sprintf("procs=%d/blocker=%v", procs, blocker != nil), func(t *testing.T) {
				runtime.GOMAXPROCS(procs)
				rng := stats.NewRand(int64(71 + procs))
				pos := setup.UniformRXs(rng, fleet)
				mv := setup.NewMover(pos, blocker)
				fanned, blocked := 0, 0
				for step, batch := range []int{1, below, above, 50, fleet, above, 3} {
					moved := moveBatch(rng, setup, mv, pos, batch)
					if procs > 1 && mv.npend*n >= refreshFanOut {
						fanned++
					}
					blocked += checkScratch(t, setup, mv, pos, blocker, fmt.Sprintf("step %d (%d moved)", step, moved))
					if mv.npend != 0 {
						t.Fatalf("step %d: %d columns still pending after Env", step, mv.npend)
					}
				}
				if procs > 1 && fanned == 0 {
					t.Fatal("no batch reached the parallel refresh")
				}
				if blocker != nil && blocked == 0 {
					t.Fatal("the blocker occluded no link")
				}
			})
		}
	}
}

// moveBatch moves batch distinct receivers to fresh positions, moves the
// first of them a second time and one of them to its own position again,
// and returns how many columns are pending.
func moveBatch(rng *rand.Rand, setup Setup, mv *Mover, pos []geom.Vec, batch int) int {
	fresh := func() geom.Vec {
		return geom.V(rng.Float64()*setup.Room.Width.M(), rng.Float64()*setup.Room.Depth.M(), 0)
	}
	perm := rng.Perm(len(pos))[:batch]
	for _, i := range perm {
		pos[i] = fresh()
		mv.MoveRX(i, pos[i])
	}
	pos[perm[0]] = fresh()
	mv.MoveRX(perm[0], pos[perm[0]])
	mv.MoveRX(perm[batch-1], pos[perm[batch-1]])
	return mv.npend
}

// checkScratch compares every bit of the Mover's environment with one built
// from scratch at pos and returns how many of its gains are zero.
func checkScratch(t *testing.T, setup Setup, mv *Mover, pos []geom.Vec, blocker channel.Blocker, what string) int {
	t.Helper()
	got, want := mv.Env(), setup.Env(pos, blocker)
	zeros := 0
	for j := 0; j < want.H.N; j++ {
		for k := 0; k < want.H.M; k++ {
			if math.Float64bits(got.H.H[j][k]) != math.Float64bits(want.H.H[j][k]) {
				t.Fatalf("%s: H[%d][%d] = %v incrementally, %v from scratch", what, j, k, got.H.H[j][k], want.H.H[j][k])
			}
			if want.H.H[j][k] == 0 {
				zeros++
			}
		}
	}
	return zeros
}
