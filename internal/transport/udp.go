package transport

import (
	"fmt"
	"net"
	"sync"
)

// UDPNetwork implements the network over UDP sockets on the loopback
// interface. The controller fans the downlink out to every node's socket —
// emulated multicast, the standard fallback where true multicast routing is
// unavailable — and nodes send uplink datagrams to the controller's socket.
//
// Frames larger than maxDatagram are rejected rather than fragmented.
type UDPNetwork struct {
	mu       sync.Mutex
	ctrlConn *net.UDPConn
	ctrlAddr *net.UDPAddr
	nodes    []*udpNode
	uplink   chan []byte
	closed   bool
	wg       sync.WaitGroup
}

const maxDatagram = 60 * 1024

// NewUDPNetwork opens the controller socket on 127.0.0.1 with an ephemeral
// port and starts its receive loop.
func NewUDPNetwork() (*UDPNetwork, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("transport: controller socket: %w", err)
	}
	n := &UDPNetwork{
		ctrlConn: conn,
		ctrlAddr: conn.LocalAddr().(*net.UDPAddr),
		uplink:   make(chan []byte, queueSize),
	}
	n.wg.Add(1)
	go n.ctrlLoop()
	return n, nil
}

func (n *UDPNetwork) ctrlLoop() {
	defer n.wg.Done()
	buf := make([]byte, maxDatagram)
	for {
		sz, _, err := n.ctrlConn.ReadFromUDP(buf)
		if err != nil {
			n.mu.Lock()
			closed := n.closed
			n.mu.Unlock()
			if closed {
				close(n.uplink)
				return
			}
			continue
		}
		msg := append([]byte(nil), buf[:sz]...)
		select {
		case n.uplink <- msg:
		default:
		}
	}
}

// ControllerAddr returns the controller's UDP address (for logging).
func (n *UDPNetwork) ControllerAddr() *net.UDPAddr { return n.ctrlAddr }

// Controller returns the controller link.
func (n *UDPNetwork) Controller() ControllerLink { return (*udpController)(n) }

// NewNode implements Network: it opens a node socket and registers it for
// downlink fan-out, or returns ErrClosed once the network is closed.
func (n *UDPNetwork) NewNode() (NodeLink, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("transport: node socket: %w", err)
	}
	node := &udpNode{
		net:  n,
		conn: conn,
		addr: conn.LocalAddr().(*net.UDPAddr),
		down: make(chan []byte, queueSize),
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		_ = conn.Close()
		return nil, ErrClosed
	}
	n.nodes = append(n.nodes, node)
	n.wg.Add(1)
	go node.loop(&n.wg)
	return node, nil
}

// Close shuts down every socket and waits for the receive loops.
func (n *UDPNetwork) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	nodes := append([]*udpNode(nil), n.nodes...)
	n.mu.Unlock()

	// Socket close errors during teardown are unactionable: the receive
	// loops exit on the pending-read error either way.
	_ = n.ctrlConn.Close()
	for _, node := range nodes {
		_ = node.conn.Close()
	}
	n.wg.Wait()
	return nil
}

type udpController UDPNetwork

func (c *udpController) Multicast(data []byte) error {
	if len(data) > maxDatagram {
		return fmt.Errorf("transport: frame of %d bytes exceeds datagram limit", len(data))
	}
	n := (*UDPNetwork)(c)
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	nodes := append([]*udpNode(nil), n.nodes...)
	n.mu.Unlock()

	for _, node := range nodes {
		// Sent from the controller socket so nodes could reply directly.
		if _, err := n.ctrlConn.WriteToUDP(data, node.addr); err != nil {
			return fmt.Errorf("transport: multicast to %v: %w", node.addr, err)
		}
	}
	return nil
}

func (c *udpController) Uplink() <-chan []byte { return c.uplink }

func (c *udpController) Close() error { return (*UDPNetwork)(c).Close() }

type udpNode struct {
	net  *UDPNetwork
	conn *net.UDPConn
	addr *net.UDPAddr
	down chan []byte
}

func (u *udpNode) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	buf := make([]byte, maxDatagram)
	for {
		sz, _, err := u.conn.ReadFromUDP(buf)
		if err != nil {
			close(u.down)
			return
		}
		msg := append([]byte(nil), buf[:sz]...)
		select {
		case u.down <- msg:
		default:
		}
	}
}

func (u *udpNode) Downlink() <-chan []byte { return u.down }

func (u *udpNode) SendUplink(data []byte) error {
	if len(data) > maxDatagram {
		return fmt.Errorf("transport: frame of %d bytes exceeds datagram limit", len(data))
	}
	_, err := u.conn.WriteToUDP(data, u.net.ctrlAddr)
	return err
}

func (u *udpNode) Close() error { return u.conn.Close() }
