// Package node is DenseVLC's asynchronous runtime: one goroutine per
// transmitter, one per receiver, and a controller loop, all talking over a
// transport.Network exactly as the distributed prototype's BeagleBones do —
// no lock-step, every node reacts to the frames it receives, the controller
// works with timeouts and whatever reports arrive in time.
//
// Transmitter goroutines tell the Hub when they emit (pilot slots, beamspot
// data), and the scenario.Medium it wraps — the same medium the
// synchronous engine drives — synthesises what each photodiode observes:
// pilot gain measurements with estimator noise, and frame deliveries drawn
// from the waveform-level PHY of package phy.
package node

import (
	"math/rand"
	"sync"

	"densevlc/internal/alloc"
	"densevlc/internal/channel"
	"densevlc/internal/chaos"
	"densevlc/internal/frame"
	"densevlc/internal/geom"
	"densevlc/internal/mac"
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

// Hub is the shared optical medium as the node goroutines see it: a
// scenario.Medium behind a lock, the receivers' pilot and reception
// streams, and the data frames waiting for their beamspot to assemble. All
// methods are safe for concurrent use by the node goroutines.
type Hub struct {
	mu     sync.Mutex
	rng    *rand.Rand
	medium *scenario.Medium

	pilotCh []chan PilotEvent
	rxCh    []chan Reception

	// pending data transmissions grouped by sequence number.
	pending map[uint16]*airFrame
}

type airFrame struct {
	mac   frame.MAC
	rx    int
	txs   []int
	waits int // how many TXs are expected to join
}

// NewHub wraps the medium for the node goroutines; its draws (pilot
// noise, data-frame timing, per-frame PHY streams) come from one stream
// seeded by seed.
func NewHub(md *scenario.Medium, seed int64) *Hub {
	n, m := md.Setup().Grid.N(), len(md.Positions())
	hub := &Hub{
		rng:     stats.NewRand(seed),
		medium:  md,
		pilotCh: make([]chan PilotEvent, m),
		rxCh:    make([]chan Reception, m),
		pending: map[uint16]*airFrame{},
	}
	for i := 0; i < m; i++ {
		hub.pilotCh[i] = make(chan PilotEvent, 2*n)
		hub.rxCh[i] = make(chan Reception, 64)
	}
	return hub
}

// applyChaos fires the injector's due fault events against the medium and
// returns how many applied.
func (h *Hub) applyChaos(in *chaos.Injector, round int, t units.Seconds) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return in.Apply(round, t, h.medium.Faults())
}

// setOccupied records which receiver slots hold a user; the rest are
// vacant and their photodiodes dark.
func (h *Hub) setOccupied(occupied []bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.medium.SetOccupied(occupied)
}

// moveTo places the receivers at the given xy positions.
func (h *Hub) moveTo(pos []geom.Vec) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, p := range pos {
		h.medium.Move(i, p)
	}
}

// PilotEvents returns receiver i's pilot-measurement stream.
func (h *Hub) PilotEvents(i int) <-chan PilotEvent { return h.pilotCh[i] }

// Receptions returns receiver i's decoded-frame stream.
func (h *Hub) Receptions(i int) <-chan Reception { return h.rxCh[i] }

// Positions returns the receivers' current xy positions.
func (h *Hub) Positions() []geom.Vec {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.medium.Positions()
}

// Snapshot returns the faulted true environment and the commanded swings
// for metrics (deep copies): metrics score the commanded allocation against
// what the photodiodes can actually receive.
func (h *Hub) Snapshot() (*alloc.Env, channel.Swings) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.medium.Truth(), h.medium.Swings()
}

// Configure records one transmitter's current command (called by TX
// goroutines when an allocation arrives).
func (h *Hub) Configure(tx int, servesRX int, swing units.Amperes, leader bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.medium.Configure(tx, servesRX, swing, leader)
}

// Pilot runs transmitter tx's measurement slot: every receiver observes the
// channel gain with M2M4-grade estimation noise.
func (h *Hub) Pilot(tx int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, ch := range h.pilotCh {
		g := h.medium.Pilot(h.rng, tx, i)
		select {
		case ch <- PilotEvent{TX: tx, Gain: g}:
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
		for j, n := 0, h.medium.Setup().Grid.N(); j < n && j < 64; j++ {
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
	txs := h.medium.Signals(h.rng, af.rx, af.txs, nil)
	link, err := h.medium.NewLink(stats.SplitRand(h.rng))
	ch := h.rxCh[af.rx]
	h.mu.Unlock()
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
