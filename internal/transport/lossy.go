package transport

import (
	"math/rand"
	"sync"

	"densevlc/internal/stats"
)

// dropGate drops frames on one link independently with a fixed
// probability. Each receiver link owns a gate with an independent seeded
// stream, so adding a link never perturbs the drops another link observes.
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

// LossyNetwork wraps a Network and drops receivers' uplink frames (reports
// and acknowledgements) independently with a fixed per-link probability —
// the fault-injection vehicle for testing the MAC's retransmission logic
// under loss on the WiFi return channel. The downlink passes through.
//
// Only a runtime that waits out a lost frame can run over it: the
// asynchronous runtime's report deadline and ARQ do, while the lock-step
// engine reads exactly one report per receiver and refuses the network.
//
// Determinism: the master seed splits into one stream per receiver link in
// registration order, so a run's drop pattern is a pure function of (seed,
// loss probability, registration order, per-link frame order).
type LossyNetwork struct {
	inner Network
	mu    sync.Mutex
	rng   *rand.Rand // master stream, split per link
	loss  float64
}

// NewLossyNetwork wraps inner with a uniform uplink drop probability,
// seeded from the master seed. A probability at or below 0 drops nothing;
// at or above 1, everything.
func NewLossyNetwork(inner Network, uplinkLoss float64, seed int64) *LossyNetwork {
	return &LossyNetwork{inner: inner, rng: stats.NewRand(seed), loss: uplinkLoss}
}

// Controller implements Network: the controller's link passes through.
func (l *LossyNetwork) Controller() ControllerLink { return l.inner.Controller() }

// NewTX implements Network: a transmitter's link passes through.
func (l *LossyNetwork) NewTX() (TXLink, error) { return l.inner.NewTX() }

// NewNode implements Network: the receiver's link gets its own drop gate,
// split off the master stream.
func (l *LossyNetwork) NewNode() (NodeLink, error) {
	rx, err := l.inner.NewNode()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return &lossyNode{NodeLink: rx, gate: &dropGate{rng: stats.SplitRand(l.rng), loss: l.loss}}, nil
}

// Close implements Network.
func (l *LossyNetwork) Close() error { return l.inner.Close() }

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
