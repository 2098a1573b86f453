package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
)

// UDPNetwork implements the network over IPv4 UDP on the loopback
// interface. The downlink is a real IP multicast: the controller sends each
// frame once, to a group address, and the kernel delivers a copy to every
// node socket that joined the group — the prototype's Ethernet multicast.
// Nodes send uplink datagrams to the controller's unicast socket.
//
// The controller socket holds 127.0.0.1:P and sends with TTL 0, so no
// datagram leaves the host. Every node socket is bound to group:P, with the
// controller's own port P: that port is held exclusively on 127.0.0.1, so
// two networks, in one process or in several, never share a (group, port)
// pair and never hear each other's downlink.
//
// A node socket is a plain blocking socket that never joins Go's
// netpoller: Receive is one read(2) on the caller's goroutine (which holds
// its OS thread while it waits) and SendUplink one sendto. Close marks the
// link closed and shuts the socket's read side down, which wakes a blocked
// read; it closes the descriptor once no call is in flight.
//
// Frames larger than maxDatagram are rejected rather than fragmented.
type UDPNetwork struct {
	mu       sync.Mutex
	ctrlConn *net.UDPConn
	ctrlAddr *net.UDPAddr
	group    *net.UDPAddr
	nodes    []*udpNode
	uplink   chan []byte
	closed   bool
	wg       sync.WaitGroup
}

const maxDatagram = 60 * 1024

var (
	// loopback is the interface address both sides of the network use.
	loopback = [4]byte{127, 0, 0, 1}
	// groupIP is the downlink's multicast group, in the organisation-local
	// scope of RFC 2365.
	groupIP = [4]byte{239, 255, 86, 67}
)

// NewUDPNetwork opens the controller socket on 127.0.0.1 with an ephemeral
// port, makes it send multicast on loopback only, and starts its receive
// loop.
func NewUDPNetwork() (*UDPNetwork, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IP(loopback[:])})
	if err != nil {
		return nil, fmt.Errorf("transport: controller socket: %w", err)
	}
	if err := multicastOnLoopback(conn); err != nil {
		_ = conn.Close() // the setup error is the one worth reporting
		return nil, fmt.Errorf("transport: controller socket: %w", err)
	}
	addr := conn.LocalAddr().(*net.UDPAddr)
	n := &UDPNetwork{
		ctrlConn: conn,
		ctrlAddr: addr,
		group:    &net.UDPAddr{IP: net.IP(groupIP[:]), Port: addr.Port},
		uplink:   make(chan []byte, queueSize),
	}
	n.wg.Add(1)
	go n.ctrlLoop()
	return n, nil
}

// multicastOnLoopback sets the controller socket's multicast options: send
// through the loopback interface, deliver to this host's members, and give
// every datagram TTL 0 so none is forwarded beyond the host.
func multicastOnLoopback(conn *net.UDPConn) error {
	raw, err := conn.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	err = raw.Control(func(fd uintptr) {
		s := int(fd)
		if serr = syscall.SetsockoptInet4Addr(s, syscall.IPPROTO_IP, syscall.IP_MULTICAST_IF, loopback); serr != nil {
			serr = fmt.Errorf("IP_MULTICAST_IF: %w", serr)
			return
		}
		if serr = syscall.SetsockoptInt(s, syscall.IPPROTO_IP, syscall.IP_MULTICAST_LOOP, 1); serr != nil {
			serr = fmt.Errorf("IP_MULTICAST_LOOP: %w", serr)
			return
		}
		if serr = syscall.SetsockoptInt(s, syscall.IPPROTO_IP, syscall.IP_MULTICAST_TTL, 0); serr != nil {
			serr = fmt.Errorf("IP_MULTICAST_TTL: %w", serr)
		}
	})
	if err != nil {
		return err
	}
	return serr
}

// joinGroup opens a node socket bound to group (the multicast address
// itself, not the wildcard) and joined to it on the loopback interface.
// net.ListenMulticastUDP is no use here: it binds the wildcard address,
// which collides with the controller's port and would expose the node on
// every interface. The socket is a plain blocking one that never reaches
// Go's netpoller, so a read is one system call and a multicast does not wake
// the poller once per member.
func joinGroup(group *net.UDPAddr) (int, error) {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_DGRAM|syscall.SOCK_CLOEXEC, syscall.IPPROTO_UDP)
	if err != nil {
		return -1, fmt.Errorf("socket: %w", err)
	}
	if err := bindMember(fd, group); err != nil {
		_ = syscall.Close(fd) // the setup error is the one worth reporting
		return -1, err
	}
	return fd, nil
}

// bindMember binds fd to group and joins the group on loopback.
func bindMember(fd int, group *net.UDPAddr) error {
	if err := syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1); err != nil {
		return fmt.Errorf("SO_REUSEADDR: %w", err)
	}
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Port: group.Port, Addr: groupIP}); err != nil {
		return fmt.Errorf("bind %v: %w", group, err)
	}
	mreq := &syscall.IPMreq{Multiaddr: groupIP, Interface: loopback}
	if err := syscall.SetsockoptIPMreq(fd, syscall.IPPROTO_IP, syscall.IP_ADD_MEMBERSHIP, mreq); err != nil {
		return fmt.Errorf("join %v on loopback: %w", group.IP, err)
	}
	return nil
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

// NewNode implements Network: it opens a node socket joined to the
// downlink group, or returns ErrClosed once the network is closed.
func (n *UDPNetwork) NewNode() (NodeLink, error) {
	fd, err := joinGroup(n.group)
	if err != nil {
		return nil, fmt.Errorf("transport: node socket: %w", err)
	}
	node := &udpNode{
		fd:       fd,
		ctrlPort: n.ctrlAddr.Port,
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		_ = syscall.Close(fd) // never handed out
		return nil, ErrClosed
	}
	n.nodes = append(n.nodes, node)
	return node, nil
}

// Close shuts down every socket and waits for the controller's receive
// loop and for every node's in-flight Receive.
func (n *UDPNetwork) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	nodes := n.nodes
	n.mu.Unlock()

	// Socket close errors during teardown are unactionable: the receive
	// loop exits on the pending-read error either way.
	_ = n.ctrlConn.Close()
	for _, node := range nodes {
		_ = node.Close()
	}
	n.wg.Wait()
	return nil
}

// sendErr reports a failed send. A send on a closed socket is ErrClosed,
// as on MemNetwork.
func sendErr(op string, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, net.ErrClosed) {
		return ErrClosed
	}
	return fmt.Errorf("transport: %s: %w", op, err)
}

type udpController UDPNetwork

// Multicast sends data once, to the group; the kernel copies it to every
// node socket.
func (c *udpController) Multicast(data []byte) error {
	if len(data) > maxDatagram {
		return fmt.Errorf("transport: frame of %d bytes exceeds datagram limit", len(data))
	}
	_, err := c.ctrlConn.WriteToUDP(data, c.group)
	return sendErr("multicast", err)
}

func (c *udpController) Uplink() <-chan []byte { return c.uplink }

func (c *udpController) Close() error { return (*UDPNetwork)(c).Close() }

// datagrams pools the receive buffers: one maxDatagram buffer per
// concurrent Receive rather than one per link.
var datagrams = sync.Pool{New: func() any { return new([maxDatagram]byte) }}

// udpNode is a node's blocking socket. Every call that uses fd registers
// in ops under mu while the link is open, and Close waits for them before
// it releases fd, so a descriptor number is never reused under a call.
type udpNode struct {
	fd       int
	ctrlPort int

	mu     sync.Mutex
	closed atomic.Bool // set under mu; read lock-free after a syscall
	ops    sync.WaitGroup
}

// begin registers a socket call, or reports that the link is closed.
func (u *udpNode) begin() bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed.Load() {
		return false
	}
	u.ops.Add(1)
	return true
}

// Receive is one read(2) into a pooled buffer, copied out at the datagram's
// exact length; unlike recvfrom it allocates no source address. Close wakes
// a blocked call through shutdown(SHUT_RD), which makes the read return 0
// bytes; the closed flag, not the length, tells that wake-up from a real
// empty datagram.
func (u *udpNode) Receive() ([]byte, error) {
	if !u.begin() {
		return nil, ErrClosed
	}
	defer u.ops.Done()
	buf := datagrams.Get().(*[maxDatagram]byte)
	defer datagrams.Put(buf)
	for {
		sz, err := syscall.Read(u.fd, buf[:])
		switch {
		case u.closed.Load():
			return nil, ErrClosed
		case err == syscall.EINTR:
			continue
		case err != nil:
			return nil, fmt.Errorf("transport: receive: %w", err)
		}
		return bytes.Clone(buf[:sz]), nil
	}
}

// SendUplink is one sendto to the controller's socket.
func (u *udpNode) SendUplink(data []byte) error {
	if len(data) > maxDatagram {
		return fmt.Errorf("transport: frame of %d bytes exceeds datagram limit", len(data))
	}
	if !u.begin() {
		return ErrClosed
	}
	defer u.ops.Done()
	if err := syscall.Sendto(u.fd, data, 0, &syscall.SockaddrInet4{Port: u.ctrlPort, Addr: loopback}); err != nil {
		return fmt.Errorf("transport: uplink: %w", err)
	}
	return nil
}

// Close marks the link closed, wakes a blocked Receive, waits for the
// calls in flight and releases the socket.
func (u *udpNode) Close() error {
	u.mu.Lock()
	already := u.closed.Swap(true)
	u.mu.Unlock()
	if already {
		return nil
	}
	// An unconnected UDP socket answers ENOTCONN, but the shutdown takes
	// effect all the same: a read returns at once, now and from then on.
	_ = syscall.Shutdown(u.fd, syscall.SHUT_RD)
	u.ops.Wait()
	return syscall.Close(u.fd)
}
