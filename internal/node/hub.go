// Package node is DenseVLC's asynchronous runtime: one goroutine per
// transmitter, one per receiver, and a controller loop, all talking over a
// transport.Network exactly as the distributed prototype's BeagleBones do —
// no lock-step, every node reacts to the frames it receives, the controller
// works with timeouts and whatever reports arrive in time.
//
// The optical medium is a Hub: transmitter goroutines tell it when they
// emit (pilot slots, beamspot data), and it synthesises what each
// photodiode observes — pilot gain measurements with estimator noise, and
// frame deliveries drawn from the waveform-level PHY of package phy.
package node

import (
	"math"
	"math/rand"
	"sync"

	"densevlc/internal/channel"
	"densevlc/internal/chaos"
	"densevlc/internal/clock"
	"densevlc/internal/frame"
	"densevlc/internal/geom"
	"densevlc/internal/mac"
	"densevlc/internal/mobility"
	"densevlc/internal/phy"
	"densevlc/internal/scenario"
	"densevlc/internal/stats"
	"densevlc/internal/units"
)

// PilotEvent is what a receiver's front-end reports for one pilot slot.
type PilotEvent struct {
	TX   int
	Gain float64
}

// Reception is a decoded data frame arriving at a receiver.
type Reception struct {
	MAC frame.MAC
}

// Hub is the shared optical medium. All methods are safe for concurrent
// use by the node goroutines.
type Hub struct {
	setup scenario.Setup
	sync  clock.Method

	mu        sync.Mutex
	rng       *rand.Rand
	positions []mobility.Trajectory
	now       units.Seconds // virtual time, advanced by the controller
	h         *channel.Matrix
	swings    []units.Amperes // commanded swing per TX
	serves    []int           // RX served per TX (-1 = none)
	leader    []bool          // leader flag per TX

	// faults is the chaos injector's target (see applyChaos).
	faults *chaos.Faults
	// rxVacant marks the fleet slots a churn workload holds free. It is
	// kept apart from the faults so occupancy and chaos blockage compose:
	// a vacant slot is dark whatever its attenuation, and a churn step
	// never clears a blockage.
	rxVacant []bool

	pilotCh []chan PilotEvent
	rxCh    []chan Reception

	// pending data transmissions grouped by sequence number.
	pending map[uint16]*airFrame
	noise   units.Amperes // per-sample photocurrent noise std
	meas    float64       // measurement-noise relative std
}

type airFrame struct {
	mac   frame.MAC
	rx    int
	txs   []int
	waits int // how many TXs are expected to join
}

// NewHub builds the medium for the given deployment.
func NewHub(setup scenario.Setup, traj []mobility.Trajectory,
	syncMethod clock.Method, measurementNoise float64, seed int64) *Hub {

	n := setup.Grid.N()
	m := len(traj)
	hub := &Hub{
		setup:     setup,
		sync:      syncMethod,
		rng:       stats.NewRand(seed),
		positions: traj,
		swings:    make([]units.Amperes, n),
		serves:    make([]int, n),
		leader:    make([]bool, n),
		pilotCh:   make([]chan PilotEvent, m),
		rxCh:      make([]chan Reception, m),
		pending:   map[uint16]*airFrame{},
		noise:     units.Amperes(math.Sqrt(setup.Params.NoisePower().A2())),
		meas:      measurementNoise,
		faults:    chaos.NewFaults(n, m),
		rxVacant:  make([]bool, m),
	}
	for j := range hub.serves {
		hub.serves[j] = -1
	}
	for i := 0; i < m; i++ {
		hub.pilotCh[i] = make(chan PilotEvent, 2*n)
		hub.rxCh[i] = make(chan Reception, 64)
	}
	hub.refreshChannelLocked()
	return hub
}

// Setup returns the deployment the hub models.
func (h *Hub) Setup() scenario.Setup { return h.setup }

// gainLocked returns the faulted channel gain from tx to rx: zero when the
// receiver's slot is vacant, otherwise what the chaos faults leave of it.
// Callers hold h.mu.
func (h *Hub) gainLocked(tx, rx int) float64 {
	if h.rxVacant[rx] {
		return 0
	}
	return h.faults.Gain(h.h, tx, rx)
}

// applyChaos fires the injector's due fault events against the medium and
// returns how many applied.
func (h *Hub) applyChaos(in *chaos.Injector, round int, t units.Seconds) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return in.Apply(round, t, h.faults)
}

// setOccupied records which receiver slots hold a user; the rest are
// vacant and their photodiodes dark.
func (h *Hub) setOccupied(occupied []bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, on := range occupied {
		h.rxVacant[i] = !on
	}
}

// PilotEvents returns receiver i's pilot-measurement stream.
func (h *Hub) PilotEvents(i int) <-chan PilotEvent { return h.pilotCh[i] }

// Receptions returns receiver i's decoded-frame stream.
func (h *Hub) Receptions(i int) <-chan Reception { return h.rxCh[i] }

// AdvanceTime moves the virtual clock (receiver positions follow their
// trajectories) and refreshes the channel matrix.
func (h *Hub) AdvanceTime(t units.Seconds) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.now = t
	h.refreshChannelLocked()
}

func (h *Hub) refreshChannelLocked() {
	xy := make([]geom.Vec, len(h.positions))
	for i, traj := range h.positions {
		p := traj.Position(h.now)
		xy[i] = geom.V(p.X, p.Y, 0)
	}
	h.h = channel.BuildMatrix(h.setup.Emitters(), h.setup.Detectors(xy), nil)
}

// Positions returns the receivers' current xy positions.
func (h *Hub) Positions() []geom.Vec {
	h.mu.Lock()
	defer h.mu.Unlock()
	xy := make([]geom.Vec, len(h.positions))
	for i, traj := range h.positions {
		p := traj.Position(h.now)
		xy[i] = geom.V(p.X, p.Y, 0)
	}
	return xy
}

// Snapshot returns the current channel matrix and commanded swings for
// metrics (deep copies).
func (h *Hub) Snapshot() (*channel.Matrix, channel.Swings) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := channel.NewSwings(h.h.N, h.h.M)
	for j := 0; j < h.h.N; j++ {
		if rx := h.serves[j]; rx >= 0 && rx < h.h.M {
			s[j][rx] = h.swings[j]
		}
	}
	// The snapshot reflects the faulted medium: metrics score the commanded
	// allocation against what the photodiodes can actually receive.
	m := h.h.Clone()
	for j := 0; j < m.N; j++ {
		for i := 0; i < m.M; i++ {
			m.H[j][i] = h.gainLocked(j, i)
		}
	}
	return m, s
}

// Configure records one transmitter's current command (called by TX
// goroutines when an allocation arrives).
func (h *Hub) Configure(tx int, servesRX int, swing units.Amperes, leader bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if tx < 0 || tx >= len(h.swings) {
		return
	}
	h.swings[tx] = swing
	h.serves[tx] = servesRX
	h.leader[tx] = leader
}

// Pilot runs transmitter tx's measurement slot: every receiver observes the
// channel gain with M2M4-grade estimation noise.
func (h *Hub) Pilot(tx int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.pilotCh {
		g := h.gainLocked(tx, i)
		if h.meas > 0 {
			g *= 1 + h.meas*h.rng.NormFloat64()
		}
		if g < 0 {
			g = 0
		}
		select {
		case h.pilotCh[i] <- PilotEvent{TX: tx, Gain: g}:
		default: // receiver not draining: drop, like a missed slot
		}
	}
}

// Transmit is called by each transmitter that relays a data frame. The hub
// groups calls by the frame's sequence header; when every addressed TX has
// joined (or on Flush), the superposed waveform is decoded at the target
// receiver.
func (h *Hub) Transmit(tx int, d frame.Downlink) {
	if len(d.MAC.Payload) < 2 {
		return
	}
	seq := uint16(d.MAC.Payload[0])<<8 | uint16(d.MAC.Payload[1])

	h.mu.Lock()
	af, ok := h.pending[seq]
	if !ok {
		waits := 0
		for j := 0; j < h.h.N && j < 64; j++ {
			if d.PHY.Targets(j) {
				waits++
			}
		}
		af = &airFrame{mac: d.MAC, rx: rxFromAddr(d.MAC.Dst), waits: waits}
		h.pending[seq] = af
	}
	af.txs = append(af.txs, tx)
	ready := len(af.txs) >= af.waits
	if ready {
		delete(h.pending, seq)
	}
	h.mu.Unlock()

	if ready {
		h.deliver(af)
	}
}

// deliver runs the beamspot's superposed frame through the waveform PHY
// and, if it decodes, pushes it to the receiver.
func (h *Hub) deliver(af *airFrame) {
	if af.rx < 0 || af.rx >= len(h.rxCh) {
		return
	}
	h.mu.Lock()
	p := h.setup.Params
	scale := p.Responsivity.APerW() * p.WallPlugEfficiency * p.DynamicResistance.Ohms()
	var txs []phy.TXSignal
	for _, tx := range af.txs {
		half := h.swings[tx].A() / 2
		amp := units.Amperes(scale * h.gainLocked(tx, af.rx) * half * half)
		// A chaos clock step shifts this board's trigger even when the
		// synchronisation method would otherwise align it.
		off, freeRun := h.faults.Skew(tx), false
		if !h.leader[tx] {
			var d units.Seconds
			d, freeRun = clock.MemberOffset(h.rng, h.sync, 100e3)
			off += d
		}
		txs = append(txs, phy.TXSignal{
			Amplitude:  amp,
			Offset:     off,
			Continuous: freeRun,
			ClockPPM:   40*h.rng.Float64() - 20,
		})
	}
	// Interference from other beamspots currently communicating. Dark
	// (failed) transmitters radiate nothing, so gainLocked removes them.
	for j, rxServed := range h.serves {
		if rxServed < 0 || rxServed == af.rx || h.swings[j] <= 0 {
			continue
		}
		half := h.swings[j].A() / 2
		amp := units.Amperes(scale * h.gainLocked(j, af.rx) * half * half)
		if amp > 0 {
			txs = append(txs, phy.TXSignal{
				Amplitude:  amp,
				Offset:     units.Seconds(h.rng.Float64() * 10e-3),
				Continuous: true,
				ClockPPM:   40*h.rng.Float64() - 20,
			})
		}
	}
	linkRng := stats.SplitRand(h.rng)
	ch := h.rxCh[af.rx]
	h.mu.Unlock()

	link, err := phy.NewLink(phy.Config{
		SymbolRate: 100e3, SampleRate: 1e6, NoiseStd: h.noise,
	}, linkRng)
	if err != nil {
		return
	}
	got, _, err := link.TransmitReceive(af.mac, txs)
	if err != nil {
		return // frame lost on air
	}
	select {
	case ch <- Reception{MAC: got}:
	default:
	}
}

// FlushPending force-delivers frames whose beamspots never fully assembled
// (a TX missed the downlink); the controller calls it at round boundaries.
func (h *Hub) FlushPending() {
	h.mu.Lock()
	var stale []*airFrame
	for seq, af := range h.pending {
		stale = append(stale, af)
		delete(h.pending, seq)
	}
	h.mu.Unlock()
	for _, af := range stale {
		if len(af.txs) > 0 {
			h.deliver(af)
		}
	}
}

func rxFromAddr(dst uint16) int {
	for i := 0; i < 256; i++ {
		if mac.RXAddr(i) == dst {
			return i
		}
	}
	return -1
}
