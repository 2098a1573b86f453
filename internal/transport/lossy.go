package transport

import (
	"math/rand"
	"sync"

	"densevlc/internal/stats"
)

// dropGate drops frames on one link independently with a fixed
// probability. Each link owns a gate with an independent seeded stream, so
// adding a link never perturbs the drops another link observes.
type dropGate struct {
	mu   sync.Mutex
	rng  *rand.Rand
	loss float64
}

// drop draws once and reports whether this frame is lost.
func (g *dropGate) drop() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.rng.Float64() < g.loss
}

// LossyNetwork wraps a Network and drops frames in each direction
// independently with a fixed per-link probability — the fault-injection
// vehicle for testing the MAC's retransmission logic under loss.
//
// Determinism: the master seed splits into one stream per link in
// registration order, so a run's drop pattern is a pure function of (seed,
// loss probabilities, registration order, per-link frame order).
type LossyNetwork struct {
	inner    Network
	mu       sync.Mutex
	rng      *rand.Rand // master stream, split per link
	down, up float64
}

// NewLossyNetwork wraps inner with independent uniform drop probabilities
// in each direction, seeded from the master seed. A probability at or below
// 0 drops nothing; at or above 1, everything.
func NewLossyNetwork(inner Network, downlinkLoss, uplinkLoss float64, seed int64) *LossyNetwork {
	return &LossyNetwork{
		inner: inner,
		rng:   stats.NewRand(seed),
		down:  downlinkLoss,
		up:    uplinkLoss,
	}
}

// Controller implements Network. Downlink loss applies per transmitter
// (each transmitter's copy of a multicast is dropped independently, as with
// real per-link corruption), so the controller link passes frames through.
func (l *LossyNetwork) Controller() ControllerLink {
	return l.inner.Controller()
}

// gate splits the next link's stream off the master stream.
func (l *LossyNetwork) gate(loss float64) *dropGate {
	l.mu.Lock()
	defer l.mu.Unlock()
	return &dropGate{rng: stats.SplitRand(l.rng), loss: loss}
}

// NewTX implements Network.
func (l *LossyNetwork) NewTX() (TXLink, error) {
	tx, err := l.inner.NewTX()
	if err != nil {
		return nil, err
	}
	return &lossyTX{TXLink: tx, gate: l.gate(l.down)}, nil
}

// NewNode implements Network.
func (l *LossyNetwork) NewNode() (NodeLink, error) {
	rx, err := l.inner.NewNode()
	if err != nil {
		return nil, err
	}
	return &lossyNode{NodeLink: rx, gate: l.gate(l.up)}, nil
}

// Close implements Network.
func (l *LossyNetwork) Close() error { return l.inner.Close() }

type lossyTX struct {
	TXLink
	gate *dropGate
}

// Receive takes frames from the inner link until one passes the drop
// gate, drawing the gate once per inner frame in the caller's goroutine.
func (t *lossyTX) Receive() ([]byte, error) {
	for {
		msg, err := t.TXLink.Receive()
		if err != nil {
			return nil, err
		}
		if !t.gate.drop() {
			return msg, nil
		}
	}
}

type lossyNode struct {
	NodeLink
	gate *dropGate
}

func (n *lossyNode) SendUplink(data []byte) error {
	if n.gate.drop() {
		return nil
	}
	return n.NodeLink.SendUplink(data)
}
