package transport

import (
	"math/rand"
	"sync"

	"densevlc/internal/stats"
)

// dropGate drops frames on one link direction independently with a fixed
// probability. Each link direction owns a gate with an independent seeded
// stream, so adding a node never perturbs the drops another link observes.
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
// Determinism: the master seed splits into one stream per link direction in
// NewNode registration order, so a run's drop pattern is a pure function of
// (seed, loss probabilities, registration order, per-link frame order).
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

// Controller implements Network. Downlink loss applies per node (each
// node's copy of a multicast is dropped independently, as with real
// per-link corruption), so the controller link passes frames through.
func (l *LossyNetwork) Controller() ControllerLink {
	return l.inner.Controller()
}

// NewNode implements Network.
func (l *LossyNetwork) NewNode() (NodeLink, error) {
	n, err := l.inner.NewNode()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	downGate := &dropGate{rng: stats.SplitRand(l.rng), loss: l.down}
	upGate := &dropGate{rng: stats.SplitRand(l.rng), loss: l.up}
	l.mu.Unlock()
	return &lossyNode{inner: n, downGate: downGate, upGate: upGate}, nil
}

// Close implements Network.
func (l *LossyNetwork) Close() error { return l.inner.Close() }

type lossyNode struct {
	inner    NodeLink
	downGate *dropGate
	upGate   *dropGate
}

// Receive takes frames from the inner link until one passes the drop
// gate, drawing the gate once per inner frame in the caller's goroutine.
func (n *lossyNode) Receive() ([]byte, error) {
	for {
		msg, err := n.inner.Receive()
		if err != nil {
			return nil, err
		}
		if !n.downGate.drop() {
			return msg, nil
		}
	}
}

func (n *lossyNode) SendUplink(data []byte) error {
	if n.upGate.drop() {
		return nil
	}
	return n.inner.SendUplink(data)
}

func (n *lossyNode) Close() error { return n.inner.Close() }
