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
// moving one receiver and updating only its column reproduces the full
// BuildMatrix rebuild bit for bit, with and without a blocker.
func TestIncrementalVsScratchColumnUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	emitters := testEmitters(12)
	for _, blocker := range []Blocker{nil, diskBlocker{cx: 1, cy: 1, r: 0.4}} {
		dets := testDetectors(rng, 7)
		m := BuildMatrix(emitters, dets, blocker)
		for step := 0; step < 50; step++ {
			rx := rng.Intn(len(dets))
			dets[rx] = testDetector(rng.Float64()*2, rng.Float64()*2)
			m.UpdateColumn(rx, emitters, dets[rx], blocker)

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
// the other side: updating every column of a stale matrix equals a from-
// scratch build.
func TestUpdateColumnEveryColumnIsFullRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	emitters := testEmitters(8)
	stale := BuildMatrix(emitters, testDetectors(rng, 5), nil)
	dets := testDetectors(rng, 5)
	for i := range dets {
		stale.UpdateColumn(i, emitters, dets[i], nil)
	}
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
	m := BuildMatrix(emitters, testDetectors(rand.New(rand.NewSource(1)), 3), nil)
	for name, fn := range map[string]func(){
		"rx out of range":   func() { m.UpdateColumn(3, emitters, testDetector(1, 1), nil) },
		"emitter count off": func() { m.UpdateColumn(0, emitters[:2], testDetector(1, 1), nil) },
		"columninto length": func() { m.ColumnInto(make([]float64, 3), 0) },
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

func TestColumnIntoMatchesColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	m := BuildMatrix(testEmitters(8), testDetectors(rng, 5), nil)
	dst := make([]float64, m.N)
	for rx := 0; rx < m.M; rx++ {
		m.ColumnInto(dst, rx)
		want := m.Column(rx)
		for j := range dst {
			if dst[j] != want[j] {
				t.Fatalf("rx %d: ColumnInto[%d] = %v, Column %v", rx, j, dst[j], want[j])
			}
		}
	}
}

// TestUpdateColumnIsAllocationFree pins the steady-state incremental path:
// a receiver move costs N gain evaluations and zero heap allocations
// (//lint:hotpath proves this statically; keep internal/lint's
// TestHotpathAlignment list in sync).
func TestUpdateColumnIsAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	emitters := testEmitters(12)
	m := BuildMatrix(emitters, testDetectors(rng, 7), nil)
	det := testDetector(0.7, 1.3)
	if n := testing.AllocsPerRun(100, func() { m.UpdateColumn(3, emitters, det, nil) }); n != 0 {
		t.Errorf("UpdateColumn allocates %.1f times, want 0", n)
	}
	dst := make([]float64, m.N)
	if n := testing.AllocsPerRun(100, func() { m.ColumnInto(dst, 3) }); n != 0 {
		t.Errorf("ColumnInto allocates %.1f times, want 0", n)
	}
}
