// Package transport carries DenseVLC's control-plane frames between the
// controller and the nodes: the downlink multicast the controller sends to
// the transmitters (Ethernet in the prototype) and the uplink reports and
// acknowledgements the receivers send back (WiFi in the prototype). A
// transmitter's TXLink only receives and a receiver's NodeLink only sends,
// so no receiver can read a control frame.
//
// Two interchangeable implementations exist: an in-memory network for tests
// and simulations, and a UDP network over the loopback interface that
// exercises the real socket path (cmd/densevlc). Both deliver every
// downlink frame to every transmitter: the in-memory network copies it
// into each transmitter's queue, the UDP network sends it once as an IP
// multicast that the kernel copies to every transmitter socket. The
// transmitter's MAC (frame.PHY.TXIDMask) decides relevance, as with the
// prototype's Ethernet multicast.
//
// A transmitter takes its downlink frames with a blocking TXLink.Receive,
// the way each prototype board reads its own NIC, and the controller takes
// its uplink frames with a blocking ControllerLink.Receive: no goroutine or
// channel stands between a link and its caller. Receive returns ErrClosed
// once the network (or, for a transmitter, its link) is closed, and
// closing wakes a Receive blocked on an idle link.
package transport

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"
)

// ErrClosed is returned by operations on a closed network.
var ErrClosed = errors.New("transport: closed")

// ControllerLink is the controller's side of the network.
type ControllerLink interface {
	// Multicast delivers a downlink frame to every transmitter.
	Multicast(data []byte) error
	// Receive blocks until the next receiver frame arrives and returns it
	// as a slice the caller owns. It returns ErrClosed once the network is
	// closed; closing the network wakes a blocked Receive.
	Receive() ([]byte, error)
}

// TXLink is a transmitter's side of the network.
type TXLink interface {
	// Receive blocks until the next controller frame arrives and returns
	// it as a slice the caller owns. It returns ErrClosed once the network
	// or the link is closed; closing either wakes a blocked Receive.
	Receive() ([]byte, error)
	io.Closer
}

// NodeLink is a receiver's side of the network.
type NodeLink interface {
	// SendUplink delivers a frame to the controller.
	SendUplink(data []byte) error
	io.Closer
}

// Network is a factory for one controller link and any number of
// transmitter and receiver links. Both the in-memory and the UDP
// implementations satisfy it, so the simulator can run over either.
type Network interface {
	Controller() ControllerLink
	NewTX() (TXLink, error)
	NewNode() (NodeLink, error)
	io.Closer
}

// queueSize bounds per-link buffering; a full queue drops the frame, the
// same failure mode as a saturated datagram socket.
const queueSize = 256

// MemNetwork is the in-memory implementation. A multicast copies into each
// transmitter's queue; a receiver link has no queue.
type MemNetwork struct {
	mu     sync.Mutex
	uplink chan []byte
	txs    []*memTX
	// closed is set, under mu, just before uplink closes; the controller's
	// Receive reads it without the lock so a closed network stops yielding
	// queued frames.
	closed atomic.Bool
}

// NewMemNetwork builds an empty in-memory network.
func NewMemNetwork() *MemNetwork {
	return &MemNetwork{uplink: make(chan []byte, queueSize)}
}

// Controller returns the controller link.
func (n *MemNetwork) Controller() ControllerLink { return (*memController)(n) }

// NewTX implements Network: it registers a new transmitter link, or
// returns ErrClosed once the network is closed.
func (n *MemNetwork) NewTX() (TXLink, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed.Load() {
		return nil, ErrClosed
	}
	tx := &memTX{net: n, down: make(chan []byte, queueSize)}
	n.txs = append(n.txs, tx)
	return tx, nil
}

// NewNode implements Network: it opens a new receiver link, or returns
// ErrClosed once the network is closed.
func (n *MemNetwork) NewNode() (NodeLink, error) {
	if n.closed.Load() {
		return nil, ErrClosed
	}
	return &memRX{net: n}, nil
}

// Close shuts the network down: it closes the uplink channel and every
// transmitter link.
func (n *MemNetwork) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed.Swap(true) {
		return nil
	}
	close(n.uplink)
	for _, tx := range n.txs {
		tx.closeLocked()
	}
	return nil
}

type memController MemNetwork

func (c *memController) Multicast(data []byte) error {
	n := (*MemNetwork)(c)
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed.Load() {
		return ErrClosed
	}
	for _, tx := range n.txs {
		if tx.closed.Load() {
			continue
		}
		msg := append([]byte(nil), data...)
		select {
		case tx.down <- msg:
		default: // dropped on overflow, like a saturated socket buffer
		}
	}
	return nil
}

// Receive takes the next frame from the uplink queue.
func (c *memController) Receive() ([]byte, error) { return receive(&c.closed, c.uplink) }

// receive takes the next frame from queue unless closed is set: a closed
// queue stops yielding the frames still in it.
func receive(closed *atomic.Bool, queue <-chan []byte) ([]byte, error) {
	if closed.Load() {
		return nil, ErrClosed
	}
	msg, ok := <-queue
	if !ok {
		return nil, ErrClosed
	}
	return msg, nil
}

type memTX struct {
	net  *MemNetwork
	down chan []byte
	// closed is set, under net.mu, just before down closes; Receive reads
	// it without the lock so a closed link stops yielding queued frames.
	closed atomic.Bool
}

// Receive takes the next frame from the transmitter's queue.
func (m *memTX) Receive() ([]byte, error) { return receive(&m.closed, m.down) }

// Close closes this link alone: its queue stops filling and a blocked
// Receive returns ErrClosed.
func (m *memTX) Close() error {
	m.net.mu.Lock()
	defer m.net.mu.Unlock()
	m.closeLocked()
	return nil
}

// closeLocked closes the link once; the caller holds net.mu, which
// Multicast holds while it fills the queue.
func (m *memTX) closeLocked() {
	if m.closed.Swap(true) {
		return
	}
	close(m.down)
}

type memRX struct {
	net    *MemNetwork
	closed atomic.Bool
}

func (m *memRX) SendUplink(data []byte) error {
	m.net.mu.Lock()
	defer m.net.mu.Unlock()
	if m.net.closed.Load() || m.closed.Load() {
		return ErrClosed
	}
	msg := append([]byte(nil), data...)
	select {
	case m.net.uplink <- msg:
	default: // dropped, like UDP
	}
	return nil
}

// Close closes this link alone: later uplinks return ErrClosed.
func (m *memRX) Close() error {
	m.closed.Store(true)
	return nil
}
