package scenario

import (
	"math"
	"math/rand"

	"densevlc/internal/alloc"
	"densevlc/internal/channel"
	"densevlc/internal/chaos"
	"densevlc/internal/clock"
	"densevlc/internal/geom"
	"densevlc/internal/phy"
	"densevlc/internal/units"
)

// dataSymbolRate is the data phase's OOK symbol rate (100 Ksymbols/s, the
// paper's iperf evaluation), sampled at dataSampleRate by the receiver ADC.
const (
	dataSymbolRate units.Hertz = 100e3
	dataSampleRate units.Hertz = 1e6
)

// Medium is the optical medium both runtimes observe. It owns the
// receivers' Eq. (1)–(2) LOS channel at their current positions (kept by a
// Mover), the injected chaos faults, the churn slots held vacant, and the
// transmitters' commanded beamspots. From them it produces what the
// controller and the photodiodes see: a noisy pilot gain, the faulted truth
// a plan is scored against, and one data frame's superposed transmitter
// signals.
//
// A vacant slot's photodiode is dark whatever its chaos attenuation, and
// marking occupancy never clears a blockage: vacancy and faults are kept
// apart and compose.
//
// A Medium holds no random stream and no lock. Every draw takes the
// caller's stream, so each runtime keeps its own draw order; a concurrent
// caller serialises access itself (node.Hub does).
type Medium struct {
	mv     *Mover
	faults *chaos.Faults
	vacant []bool
	sync   clock.Method
	meas   float64 // pilot-estimate relative noise std

	swing  []units.Amperes // commanded swing per TX
	serves []int           // RX served per TX (-1 = none)
	leader []bool          // beamspot leader flag per TX

	scale float64       // R·η·r: amplitude per (Isw/2)²·H
	noise units.Amperes // per-sample photocurrent noise std
}

// NewMedium builds the medium for receivers at the given xy positions, with
// every line of sight open. syncMethod sets how beamspot members trigger in
// the data phase; measurementNoise is the relative std of the receivers'
// pilot estimates (M2M4 estimation error).
func NewMedium(s Setup, rx []geom.Vec, syncMethod clock.Method, measurementNoise float64) *Medium {
	n, m := s.Grid.N(), len(rx)
	p := s.Params
	md := &Medium{
		mv:     s.NewMover(rx, nil),
		faults: chaos.NewFaults(n, m),
		vacant: make([]bool, m),
		sync:   syncMethod,
		meas:   measurementNoise,
		swing:  make([]units.Amperes, n),
		serves: make([]int, n),
		leader: make([]bool, n),
		scale:  p.Responsivity.APerW() * p.WallPlugEfficiency * p.DynamicResistance.Ohms(),
		noise:  units.Amperes(math.Sqrt(p.NoisePower().A2())),
	}
	for j := range md.serves {
		md.serves[j] = -1
	}
	return md
}

// Setup returns the deployment the medium models.
func (md *Medium) Setup() Setup { return md.mv.setup }

// Move places receiver i at the xy position p and refreshes its gains at
// once, on the calling goroutine. A runtime may call the medium while
// holding its own lock (node.Hub does), so the medium never goes through
// Mover.Env, whose large refreshes start and wait for goroutines: it
// refreshes here and reads the Mover's environment directly.
//
//lint:hotpath
func (md *Medium) Move(i int, p geom.Vec) {
	md.mv.MoveRX(i, p)
	md.mv.settle()
}

// Positions returns a copy of the receivers' current xy positions.
func (md *Medium) Positions() []geom.Vec {
	return append([]geom.Vec(nil), md.mv.Positions()...)
}

// Faults returns the chaos state the injector applies events to.
func (md *Medium) Faults() *chaos.Faults { return md.faults }

// SetOccupied records which receiver slots hold a user; the rest are
// vacant and their photodiodes dark.
func (md *Medium) SetOccupied(occupied []bool) {
	for i, on := range occupied {
		md.vacant[i] = !on
	}
}

// Gain returns the faulted channel gain from tx to rx: zero when the
// receiver's slot is vacant, otherwise what the chaos faults leave of it.
func (md *Medium) Gain(tx, rx int) float64 {
	if md.vacant[rx] {
		return 0
	}
	return md.faults.Gain(md.mv.env.H, tx, rx)
}

// Pilot returns receiver rx's estimate of transmitter tx's gain from its
// pilot slot, with the estimator's relative noise drawn from rng (no draw
// when the medium is noise-free). Estimates are clamped at zero.
func (md *Medium) Pilot(rng *rand.Rand, tx, rx int) float64 {
	g := md.Gain(tx, rx)
	if md.meas > 0 {
		g *= 1 + md.meas*rng.NormFloat64()
	}
	if g < 0 {
		g = 0
	}
	return g
}

// Truth returns the faulted environment — what the photodiodes can
// actually receive — as a fresh copy to score a plan against.
func (md *Medium) Truth() *alloc.Env {
	env := *md.mv.env
	env.H = channel.NewMatrix(env.H.N, env.H.M)
	for j, row := range env.H.H {
		for i := range row {
			row[i] = md.Gain(j, i)
		}
	}
	return &env
}

// Configure records transmitter tx's current command: the receiver it
// serves (-1 for none), its swing and whether it leads the beamspot. An
// out-of-range tx is ignored.
func (md *Medium) Configure(tx, servesRX int, swing units.Amperes, leader bool) {
	if tx < 0 || tx >= len(md.swing) {
		return
	}
	md.swing[tx] = swing
	md.serves[tx] = servesRX
	md.leader[tx] = leader
}

// amplitude is transmitter tx's received photocurrent amplitude at rx,
// R·η·r·(Isw/2)²·H over the faulted gain: a dark TX radiates nothing.
func (md *Medium) amplitude(tx, rx int) units.Amperes {
	half := md.swing[tx].A() / 2
	return units.Amperes(md.scale * md.Gain(tx, rx) * half * half)
}

// Signals appends to dst one data frame's transmitter signals at receiver
// rx and returns it. The beamspot members come first, in the given order,
// at their commanded swings; each draws its trigger offset from rng (its
// chaos clock skew plus, unless it leads, the synchronisation method's
// member offset) and then its crystal error. Every other communicating
// beamspot follows as a free-running interferer with a random frame phase
// and crystal error.
func (md *Medium) Signals(rng *rand.Rand, rx int, members []int, dst []phy.TXSignal) []phy.TXSignal {
	for _, tx := range members {
		amp := md.amplitude(tx, rx)
		// A chaos clock step shifts this board's trigger even when the
		// synchronisation method would otherwise align it.
		off, freeRun := md.faults.Skew(tx), false
		if !md.leader[tx] {
			var d units.Seconds
			d, freeRun = clock.MemberOffset(rng, md.sync, dataSymbolRate)
			off += d
		}
		dst = append(dst, phy.TXSignal{
			Amplitude:  amp,
			Offset:     off,
			Continuous: freeRun,
			ClockPPM:   40*rng.Float64() - 20, // per-board crystal tolerance
		})
	}
	for j, served := range md.serves {
		if served < 0 || served == rx || md.swing[j] <= 0 {
			continue
		}
		if amp := md.amplitude(j, rx); amp > 0 {
			dst = append(dst, phy.TXSignal{
				Amplitude:  amp,
				Offset:     units.Seconds(rng.Float64() * 10e-3),
				Continuous: true,
				ClockPPM:   40*rng.Float64() - 20,
			})
		}
	}
	return dst
}

// NewLink builds a receiver's data-phase waveform link: 100 Ksym/s OOK
// sampled at 1 Msps under the receiver's photocurrent noise, drawing from
// rng.
func (md *Medium) NewLink(rng *rand.Rand) (*phy.Link, error) {
	return phy.NewLink(phy.Config{SymbolRate: dataSymbolRate, SampleRate: dataSampleRate, NoiseStd: md.noise}, rng)
}
