// Package node is DenseVLC's asynchronous runtime: one goroutine per
// transmitter and one per receiver, all talking over a transport.Network
// exactly as the distributed prototype's BeagleBones do — no lock-step,
// every node reacts to the frames it receives, and the controller works
// with timeouts and whatever reports arrive in time. The epoch itself is
// sim.Drive's, the loop the synchronous engine runs too; RunContext plugs
// the goroutines, the report deadline and the stop-and-wait ARQ into it.
//
// Transmitter goroutines tell the Hub when they emit (pilot slots, beamspot
// data), and the scenario.Medium it wraps — the same medium the
// synchronous engine drives — synthesises what each photodiode observes:
// pilot gain measurements with estimator noise, and frame deliveries drawn
// from the waveform-level PHY of package phy.
package node

import (
	"math/rand"
	"slices"
	"sync"

	"densevlc/internal/frame"
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

// do runs f on the medium under the hub's lock, so the round boundary and
// the score never race the node goroutines' reads.
func (h *Hub) do(f func(md *scenario.Medium)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	f(h.medium)
}

// PilotEvents returns receiver i's pilot-measurement stream.
func (h *Hub) PilotEvents(i int) <-chan PilotEvent { return h.pilotCh[i] }

// Receptions returns receiver i's decoded-frame stream.
func (h *Hub) Receptions(i int) <-chan Reception { return h.rxCh[i] }

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
		af = &airFrame{mac: d.MAC, rx: mac.RXIndex(d.MAC.Dst), waits: waits}
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
// Frames go out in sequence-number order: each delivery draws from the
// hub's stream and queues at its receiver in that order.
func (h *Hub) FlushPending() {
	h.mu.Lock()
	seqs := make([]uint16, 0, len(h.pending))
	for seq := range h.pending {
		seqs = append(seqs, seq)
	}
	slices.Sort(seqs)
	stale := make([]*airFrame, len(seqs))
	for k, seq := range seqs {
		stale[k] = h.pending[seq]
		delete(h.pending, seq)
	}
	h.mu.Unlock()
	for _, af := range stale {
		if len(af.txs) > 0 {
			h.deliver(af)
		}
	}
}
