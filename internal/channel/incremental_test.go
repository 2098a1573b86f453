package channel

import (
	"math/rand"
	"testing"

	"densevlc/internal/geom"
	"densevlc/internal/optics"
)

func testEmitters(n int) []optics.Emitter {
	out := make([]optics.Emitter, n)
	for j := range out {
		x := float64(j%4)*0.5 + 0.25
		y := float64(j/4)*0.5 + 0.25
		out[j] = optics.NewDownwardEmitter(geom.V(x, y, 2.8), 0.7)
	}
	return out
}

func testDetector(x, y float64) optics.Detector {
	return optics.NewUpwardDetector(geom.V(x, y, 0.8), 1.1e-6, 1.5707963267948966)
}

func testDetectors(rng *rand.Rand, m int) []optics.Detector {
	out := make([]optics.Detector, m)
	for i := range out {
		out[i] = testDetector(rng.Float64()*2, rng.Float64()*2)
	}
	return out
}

// diskBlocker occludes any path whose endpoint detector sits inside a disk
// around (cx, cy) — a stand-in for the Sec. 9 blockage study.
type diskBlocker struct{ cx, cy, r float64 }

func (b diskBlocker) Blocked(from, to geom.Vec) bool {
	dx, dy := to.X-b.cx, to.Y-b.cy
	return dx*dx+dy*dy < b.r*b.r
}

// TestIncrementalVsScratchColumnUpdate is the row-local refresh property:
// moving receivers and refreshing only their columns, whole or in row
// blocks, reproduces the full BuildMatrix rebuild bit for bit, with and
// without a blocker.
func TestIncrementalVsScratchColumnUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	emitters := testEmitters(12)
	for _, blocker := range []Blocker{nil, diskBlocker{cx: 1, cy: 1, r: 0.4}} {
		dets := testDetectors(rng, 7)
		m := BuildMatrix(emitters, dets, blocker)
		for step := 0; step < 50; step++ {
			// One to three receivers move (possibly the same one twice);
			// the rows are refreshed in one pass or in blocks split at a
			// random row.
			cols := make([]int, 1+rng.Intn(3))
			for k := range cols {
				cols[k] = rng.Intn(len(dets))
				dets[cols[k]] = testDetector(rng.Float64()*2, rng.Float64()*2)
			}
			if split := rng.Intn(m.N + 1); step%2 == 0 {
				m.UpdateColumns(split, m.N, cols, emitters, dets, blocker)
				m.UpdateColumns(0, split, cols, emitters, dets, blocker)
			} else {
				m.UpdateColumns(0, m.N, cols, emitters, dets, blocker)
			}

			want := BuildMatrix(emitters, dets, blocker)
			for j := 0; j < m.N; j++ {
				for i := 0; i < m.M; i++ {
					if m.H[j][i] != want.H[j][i] {
						t.Fatalf("blocker=%v step %d: H[%d][%d] = %v incrementally, %v from scratch",
							blocker != nil, step, j, i, m.H[j][i], want.H[j][i])
					}
				}
			}
		}
	}
}

// TestUpdateColumnEveryColumnIsFullRebuild drives the same property from
// the other side: refreshing every column of a stale matrix equals a from-
// scratch build.
func TestUpdateColumnEveryColumnIsFullRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	emitters := testEmitters(8)
	stale := BuildMatrix(emitters, testDetectors(rng, 5), nil)
	dets := testDetectors(rng, 5)
	stale.UpdateColumns(0, stale.N, []int{4, 0, 2, 1, 3}, emitters, dets, nil)
	want := BuildMatrix(emitters, dets, nil)
	for j := 0; j < want.N; j++ {
		for i := 0; i < want.M; i++ {
			if stale.H[j][i] != want.H[j][i] {
				t.Fatalf("H[%d][%d] = %v incrementally, %v from scratch", j, i, stale.H[j][i], want.H[j][i])
			}
		}
	}
}

func TestUpdateColumnPanicsOnBadDimensions(t *testing.T) {
	emitters := testEmitters(4)
	dets := testDetectors(rand.New(rand.NewSource(1)), 3)
	m := BuildMatrix(emitters, dets, nil)
	for name, fn := range map[string]func(){
		"rx out of range":    func() { m.UpdateColumns(0, m.N, []int{3}, emitters, dets, nil) },
		"negative rx":        func() { m.UpdateColumns(0, m.N, []int{-1}, emitters, dets, nil) },
		"emitter count off":  func() { m.UpdateColumns(0, m.N, []int{0}, emitters[:2], dets, nil) },
		"detector count off": func() { m.UpdateColumns(0, m.N, []int{0}, emitters, dets[:2], nil) },
		"rows past the end":  func() { m.UpdateColumns(0, m.N+1, []int{0}, emitters, dets, nil) },
		"rows reversed":      func() { m.UpdateColumns(2, 1, []int{0}, emitters, dets, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestUpdateColumnIsAllocationFree pins the steady-state incremental path:
// a receiver move costs N gain evaluations and zero heap allocations
// (//lint:hotpath proves this statically; keep internal/lint's
// TestHotpathAlignment list in sync).
func TestUpdateColumnIsAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	emitters := testEmitters(12)
	dets := testDetectors(rng, 7)
	m := BuildMatrix(emitters, dets, nil)
	cols := []int{3, 5}
	if n := testing.AllocsPerRun(100, func() { m.UpdateColumns(0, m.N, cols, emitters, dets, nil) }); n != 0 {
		t.Errorf("UpdateColumns allocates %.1f times, want 0", n)
	}
}
