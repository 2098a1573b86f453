// Package node is DenseVLC's asynchronous runtime: one goroutine per
// transmitter, each reading its own downlink link exactly as the
// distributed prototype's BeagleBones read their NICs — no lock-step, every
// transmitter reacts to the frames it receives, and the controller works
// with timeouts and whatever reports arrive in time. The epoch itself is
// sim.Drive's, the loop the synchronous engine runs too; RunContext plugs
// the goroutines, the report deadline and the stop-and-wait ARQ into it.
//
// Transmitter goroutines tell the Hub when they emit (pilot slots, beamspot
// data), and the scenario.Medium it wraps — the same medium the
// synchronous engine drives — synthesises what each photodiode observes:
// pilot gain measurements with estimator noise, and frame deliveries drawn
// from the waveform-level PHY of package phy. A receiver, like the
// paper's, owns no clock and reads no socket: the Hub steps its MAC state
// machine on each observation, and it sends its channel reports and ACKs
// on its uplink link.
package node

import (
	"math/rand"
	"slices"
	"sync"

	"densevlc/internal/frame"
	"densevlc/internal/mac"
	"densevlc/internal/scenario"
	"densevlc/internal/stats"
	"densevlc/internal/transport"
	"densevlc/internal/units"
)

// Hub is the shared optical medium as the node goroutines see it, and the
// receivers on it: a scenario.Medium behind a lock, each receiver's MAC
// state and uplink, and the data frames waiting for their beamspot to
// assemble. A receiver has no goroutine of its own: the transmitter whose
// pilot slot or beamspot reaches it steps its state machine, as the
// lock-step engine does. All methods are safe for concurrent use by the
// node goroutines, and none sends on an uplink under the lock.
type Hub struct {
	mu     sync.Mutex
	rng    *rand.Rand
	medium *scenario.Medium

	rxs   []*mac.RXNode
	links []transport.NodeLink
	// delivered counts each receiver's payloads handed to the application.
	delivered []int

	// pending data transmissions grouped by sequence number.
	pending map[uint16]*airFrame
}

type airFrame struct {
	mac   frame.MAC
	rx    int
	txs   []int
	waits int // how many TXs are expected to join
}

// uplink is a frame a receiver sends once the hub's lock is released.
type uplink struct {
	rx  int
	raw []byte
}

// NewHub wraps the medium for the node goroutines, with receiver i sending
// on links[i]; its draws (pilot noise, data-frame timing, per-frame PHY
// streams) come from one stream seeded by seed.
func NewHub(md *scenario.Medium, links []transport.NodeLink, seed int64) *Hub {
	hub := &Hub{
		rng:       stats.NewRand(seed),
		medium:    md,
		links:     links,
		delivered: make([]int, len(links)),
		pending:   map[uint16]*airFrame{},
	}
	n := md.Setup().Grid.N()
	for i := range links {
		hub.rxs = append(hub.rxs, mac.NewRXNode(i, n))
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

// Configure records one transmitter's current command (called by TX
// goroutines when an allocation arrives).
func (h *Hub) Configure(tx int, servesRX int, swing units.Amperes, leader bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.medium.Configure(tx, servesRX, swing, leader)
}

// Pilot runs transmitter tx's measurement slot: every receiver records the
// channel gain with M2M4-grade estimation noise, and each receiver whose
// round this slot completes sends its channel report.
func (h *Hub) Pilot(tx int) {
	var reports []uplink
	h.mu.Lock()
	for i, rx := range h.rxs {
		if err := rx.RecordMeasurement(tx, h.medium.Pilot(h.rng, tx, i)); err != nil || !rx.RoundComplete() {
			continue
		}
		if raw, err := frame.SerializeMAC(rx.BuildReport()); err == nil {
			reports = append(reports, uplink{rx: i, raw: raw})
		}
	}
	h.mu.Unlock()
	for _, r := range reports {
		_ = h.links[r.rx].SendUplink(r.raw) // a lost report is the deadline's to absorb
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
// and, if it decodes, hands it to the receiver, which acknowledges it. Each
// payload counts once; a retransmission the receiver already has is
// acknowledged again, as the controller may have missed the first ACK.
func (h *Hub) deliver(af *airFrame) {
	if af.rx < 0 || af.rx >= len(h.rxs) {
		return
	}
	h.mu.Lock()
	txs := h.medium.Signals(h.rng, af.rx, af.txs, nil)
	link, err := h.medium.NewLink(stats.SplitRand(h.rng))
	h.mu.Unlock()
	if err != nil {
		return
	}
	got, _, err := link.TransmitReceive(af.mac, txs)
	if err != nil {
		return // frame lost on air
	}
	h.mu.Lock()
	payload, ack, handled := h.rxs[af.rx].HandleData(got)
	if payload != nil {
		h.delivered[af.rx]++
	}
	h.mu.Unlock()
	if !handled {
		return
	}
	if raw, err := frame.SerializeMAC(ack); err == nil {
		_ = h.links[af.rx].SendUplink(raw) // a lost ACK is the ARQ's to absorb
	}
}

// FlushPending force-delivers frames whose beamspots never fully assembled
// (a TX missed the downlink); the controller calls it at round boundaries.
// Frames go out in sequence-number order: each delivery draws from the
// hub's stream and is acknowledged in that order.
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
