package scenario

import (
	"math"
	"sync"
	"sync/atomic"

	"densevlc/internal/alloc"
	"densevlc/internal/channel"
	"densevlc/internal/geom"
	"densevlc/internal/optics"
	"densevlc/internal/parallel"
)

// refreshFanOut is the pending gain count (moved columns × N) from which
// Env spreads the channel refresh across cores; below it, or with one
// core, the refresh runs on the calling goroutine alone. A goroutine's
// start and join cost a few microseconds, about a hundred gains.
const refreshFanOut = 4096

// refreshBlockGains sizes the row blocks a parallel refresh hands out: each
// block holds about this many gains, so the cores that finish early take
// more blocks and no core waits long for a slow one.
const refreshBlockGains = 1024

// Mover maintains an allocation environment under receiver motion with
// row-local channel updates: a receiver move recomputes only its column of
// H (N gain evaluations) instead of rebuilding the full N×M matrix. The
// refresh is deferred: MoveRX records the move, and Env brings every moved
// column up to date in one row-blocked pass, across cores when the pass is
// large. The cached emitters and detectors make the steady state
// allocation-free, and the gain arithmetic is BuildMatrix's, so the
// environment Env returns is bit-identical to Setup.Env at the current
// positions.
type Mover struct {
	setup    Setup
	emitters []optics.Emitter
	blocker  channel.Blocker
	pos      []geom.Vec
	dets     []optics.Detector // per receiver, at pos
	pending  []int             // columns moved since the last refresh; the first npend are live
	npend    int
	moved    []bool // per receiver: its column is among the pending
	env      *alloc.Env
}

// NewMover builds the environment for receivers at the given xy positions
// and prepares the incremental-update state. The blocker, if any, applies
// to every subsequent column refresh exactly as it does to the initial
// build.
func (s Setup) NewMover(rx []geom.Vec, blocker channel.Blocker) *Mover {
	pos := make([]geom.Vec, len(rx))
	copy(pos, rx)
	return &Mover{
		setup:    s,
		emitters: s.Emitters(),
		blocker:  blocker,
		pos:      pos,
		dets:     s.Detectors(rx),
		pending:  make([]int, len(rx)),
		moved:    make([]bool, len(rx)),
		env:      s.Env(rx, blocker),
	}
}

// Env brings the gain matrix up to date with every move since the last
// call and returns the maintained environment. H reflects a move only once
// Env has been called after it; a caller holding the pointer across moves
// calls Env again before reading. The pointer is stable: the refresh
// mutates the matrix in place. A large refresh runs on up to GOMAXPROCS
// goroutines, all joined before Env returns.
func (mv *Mover) Env() *alloc.Env {
	if w := parallel.Workers(0); w > 1 && mv.npend*len(mv.emitters) >= refreshFanOut {
		mv.refreshAcross(w)
	} else {
		mv.settle()
	}
	return mv.env
}

// Pos returns receiver i's current xy position.
func (mv *Mover) Pos(i int) geom.Vec { return mv.pos[i] }

// Positions returns the current xy positions of every receiver; the slice
// is the Mover's own and must not be mutated.
func (mv *Mover) Positions() []geom.Vec { return mv.pos }

// MoveRX moves receiver i to the xy position p and marks its column of the
// gain matrix for the next Env call: O(1) work, no allocation. A position
// bitwise equal to the current one marks nothing, since its gains would
// not change.
//
//lint:hotpath
func (mv *Mover) MoveRX(i int, p geom.Vec) {
	old := mv.pos[i]
	mv.pos[i] = geom.V(p.X, p.Y, 0)
	if math.Float64bits(p.X) == math.Float64bits(old.X) && math.Float64bits(p.Y) == math.Float64bits(old.Y) {
		return
	}
	mv.dets[i] = optics.NewUpwardDetector(geom.V(p.X, p.Y, mv.setup.RXPlaneZ.M()), PhotodiodeArea, ReceiverFOV)
	if !mv.moved[i] {
		mv.moved[i] = true
		mv.pending[mv.npend] = i
		mv.npend++
	}
}

// settle refreshes the pending columns on the calling goroutine, all rows
// in one kernel call. It starts no goroutine, so a caller holding a lock
// (Medium, under node.Hub's) may run it.
//
//lint:hotpath
func (mv *Mover) settle() {
	if mv.npend == 0 {
		return
	}
	mv.env.H.UpdateColumns(0, len(mv.emitters), mv.pending[:mv.npend], mv.emitters, mv.dets, mv.blocker)
	mv.clearPending()
}

// refreshAcross refreshes the pending columns in row blocks spread over up
// to workers goroutines, the calling one included. Blocks are handed out
// through an atomic counter, so a goroutine that starts late takes fewer
// of them. Each block writes its own rows, and every gain keeps the bits
// the serial pass gives it.
func (mv *Mover) refreshAcross(workers int) {
	n, cols := len(mv.emitters), mv.pending[:mv.npend]
	rows := max(1, refreshBlockGains/len(cols))
	blocks := (n + rows - 1) / rows
	var next atomic.Int64
	run := func() {
		for b := int(next.Add(1)) - 1; b < blocks; b = int(next.Add(1)) - 1 {
			mv.env.H.UpdateColumns(b*rows, min(n, (b+1)*rows), cols, mv.emitters, mv.dets, mv.blocker)
		}
	}
	var wg sync.WaitGroup
	for range min(workers, blocks) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
	mv.clearPending()
}

// clearPending forgets the refreshed moves.
func (mv *Mover) clearPending() {
	for _, i := range mv.pending[:mv.npend] {
		mv.moved[i] = false
	}
	mv.npend = 0
}
