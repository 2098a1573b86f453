package transport

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
)

// UDPNetwork implements the network over IPv4 UDP on the loopback
// interface. The downlink is a real IP multicast: the controller sends each
// frame once, to a group address, and the kernel delivers a copy to every
// transmitter socket, the only sockets that join the group — the
// prototype's Ethernet multicast. Receivers send uplink datagrams to the
// controller's unicast socket from sockets bound to 127.0.0.1.
//
// The controller socket holds 127.0.0.1:P and sends with TTL 0, so no
// datagram leaves the host. Every transmitter socket is bound to group:P,
// with the controller's own port P: that port is held exclusively on
// 127.0.0.1, so two networks, in one process or in several, never share a
// (group, port) pair and never hear each other's downlink.
//
// The controller socket's receive buffer holds a report from each of the
// wire's 255 receivers at once (ctrlRcvbuf). Linux caps the request at
// net.core.rmem_max (212,992 B by default, enough); if that cap leaves
// less, NewUDPNetwork fails and names the setting.
//
// All roles use one socket type, a plain blocking socket that never joins
// Go's netpoller: Receive is one read(2) on the caller's goroutine (which
// holds its OS thread while it waits), and the controller's Multicast and a
// receiver's SendUplink are one sendto each. Closing a socket marks it
// closed and shuts its read side down, which wakes a blocked read; the
// descriptor is released once no call is in flight.
//
// Frames larger than maxDatagram are rejected rather than fragmented.
type UDPNetwork struct {
	ctrl *udpSocket
	port int // the controller's port P, shared by the group address

	mu     sync.Mutex
	socks  []*udpSocket // every transmitter and receiver socket
	closed bool
}

const maxDatagram = 60 * 1024

// ctrlRcvbuf is the controller's receive buffer in the kernel's accounting:
// 255 receivers (mac.CheckWireLimits), each report of up to 64 gains (about
// 530 B) charged 1,280 B of skb truesize on loopback.
const ctrlRcvbuf = 255 * 1280

var (
	// loopback is the interface address both sides of the network use.
	loopback = [4]byte{127, 0, 0, 1}
	// groupIP is the downlink's multicast group, in the organisation-local
	// scope of RFC 2365.
	groupIP = [4]byte{239, 255, 86, 67}
)

// NewUDPNetwork opens the controller socket on 127.0.0.1 with an ephemeral
// port and makes it send multicast on loopback only.
func NewUDPNetwork() (*UDPNetwork, error) {
	fd, err := openSocket(bindController)
	if err != nil {
		return nil, fmt.Errorf("transport: controller socket: %w", err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		_ = syscall.Close(fd) // the lookup error is the one worth reporting
		return nil, fmt.Errorf("transport: controller socket: %w", err)
	}
	return &UDPNetwork{ctrl: &udpSocket{fd: fd}, port: sa.(*syscall.SockaddrInet4).Port}, nil
}

// openSocket makes a blocking IPv4 UDP socket and runs setup on it. The
// socket never reaches Go's netpoller, so a read is one system call and a
// multicast does not wake the poller once per member.
func openSocket(setup func(fd int) error) (int, error) {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_DGRAM|syscall.SOCK_CLOEXEC, syscall.IPPROTO_UDP)
	if err != nil {
		return -1, fmt.Errorf("socket: %w", err)
	}
	if err := setup(fd); err != nil {
		_ = syscall.Close(fd) // the setup error is the one worth reporting
		return -1, err
	}
	return fd, nil
}

// bindLoopback binds fd to an ephemeral port on 127.0.0.1.
func bindLoopback(fd int) error {
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: loopback}); err != nil {
		return fmt.Errorf("bind: %w", err)
	}
	return nil
}

// bindController binds fd to an ephemeral port on 127.0.0.1, sizes its
// receive buffer to ctrlRcvbuf and sets its multicast options: send through
// the loopback interface, deliver to this host's members, and give every
// datagram TTL 0 so none is forwarded beyond the host.
func bindController(fd int) error {
	if err := bindLoopback(fd); err != nil {
		return err
	}
	// Linux caps the value set at net.core.rmem_max, then doubles it.
	if err := syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_RCVBUF, ctrlRcvbuf/2); err != nil {
		return fmt.Errorf("SO_RCVBUF: %w", err)
	}
	if got, err := syscall.GetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_RCVBUF); err != nil {
		return fmt.Errorf("SO_RCVBUF: %w", err)
	} else if got < ctrlRcvbuf {
		return fmt.Errorf("SO_RCVBUF: %d B, under the %d B of 255 reports; raise net.core.rmem_max to %d", got, ctrlRcvbuf, ctrlRcvbuf/2)
	}
	if err := syscall.SetsockoptInet4Addr(fd, syscall.IPPROTO_IP, syscall.IP_MULTICAST_IF, loopback); err != nil {
		return fmt.Errorf("IP_MULTICAST_IF: %w", err)
	}
	if err := syscall.SetsockoptInt(fd, syscall.IPPROTO_IP, syscall.IP_MULTICAST_LOOP, 1); err != nil {
		return fmt.Errorf("IP_MULTICAST_LOOP: %w", err)
	}
	if err := syscall.SetsockoptInt(fd, syscall.IPPROTO_IP, syscall.IP_MULTICAST_TTL, 0); err != nil {
		return fmt.Errorf("IP_MULTICAST_TTL: %w", err)
	}
	return nil
}

// bindMember binds fd to group:port (the multicast address itself, not the
// wildcard) and joins the group on loopback. net.ListenMulticastUDP is no
// use here: it binds the wildcard address, which collides with the
// controller's port and would expose the transmitter on every interface.
func bindMember(fd, port int) error {
	if err := syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1); err != nil {
		return fmt.Errorf("SO_REUSEADDR: %w", err)
	}
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Port: port, Addr: groupIP}); err != nil {
		return fmt.Errorf("bind %v:%d: %w", net.IP(groupIP[:]), port, err)
	}
	mreq := &syscall.IPMreq{Multiaddr: groupIP, Interface: loopback}
	if err := syscall.SetsockoptIPMreq(fd, syscall.IPPROTO_IP, syscall.IP_ADD_MEMBERSHIP, mreq); err != nil {
		return fmt.Errorf("join %v on loopback: %w", net.IP(groupIP[:]), err)
	}
	return nil
}

// ControllerAddr returns the controller's UDP address (for logging).
func (n *UDPNetwork) ControllerAddr() *net.UDPAddr {
	return &net.UDPAddr{IP: net.IP(loopback[:]), Port: n.port}
}

// Controller returns the controller link.
func (n *UDPNetwork) Controller() ControllerLink { return (*udpController)(n) }

// NewTX implements Network: it opens a transmitter socket joined to the
// downlink group, or returns ErrClosed once the network is closed.
func (n *UDPNetwork) NewTX() (TXLink, error) {
	s, err := n.open("TX", func(fd int) error { return bindMember(fd, n.port) })
	if err != nil {
		return nil, err
	}
	return s, nil
}

// NewNode implements Network: it opens a receiver socket bound to
// 127.0.0.1 (sendto would bind the wildcard), or returns ErrClosed once the
// network is closed.
func (n *UDPNetwork) NewNode() (NodeLink, error) {
	s, err := n.open("RX", bindLoopback)
	if err != nil {
		return nil, err
	}
	return &udpNode{sock: s, port: n.port}, nil
}

// open makes a socket with setup and registers it for Close.
func (n *UDPNetwork) open(role string, setup func(fd int) error) (*udpSocket, error) {
	fd, err := openSocket(setup)
	if err != nil {
		return nil, fmt.Errorf("transport: %s socket: %w", role, err)
	}
	s := &udpSocket{fd: fd}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		_ = syscall.Close(fd) // never handed out
		return nil, ErrClosed
	}
	n.socks = append(n.socks, s)
	return s, nil
}

// Close closes the controller socket and every transmitter and receiver
// socket, each once its calls in flight have returned.
func (n *UDPNetwork) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	socks := n.socks
	n.mu.Unlock()

	// Socket close errors during teardown are unactionable: every blocked
	// Receive has returned ErrClosed either way.
	_ = n.ctrl.Close()
	for _, s := range socks {
		_ = s.Close()
	}
	return nil
}

type udpController UDPNetwork

// Multicast sends data once, to group:P; the kernel copies it to every
// transmitter socket.
func (c *udpController) Multicast(data []byte) error {
	return c.ctrl.send(data, syscall.SockaddrInet4{Port: c.port, Addr: groupIP})
}

// Receive takes the next uplink datagram from the controller socket.
func (c *udpController) Receive() ([]byte, error) { return c.ctrl.Receive() }

// udpNode is a receiver's socket, which only sends, to 127.0.0.1:port.
type udpNode struct {
	sock *udpSocket
	port int
}

// SendUplink is one sendto to the controller's socket.
func (u *udpNode) SendUplink(data []byte) error {
	return u.sock.send(data, syscall.SockaddrInet4{Port: u.port, Addr: loopback})
}

func (u *udpNode) Close() error { return u.sock.Close() }

// datagrams pools the receive buffers: one maxDatagram buffer per
// concurrent Receive rather than one per socket.
var datagrams = sync.Pool{New: func() any { return new([maxDatagram]byte) }}

// udpSocket is one blocking socket: the controller's, a transmitter's or a
// receiver's. Every call that uses fd registers in ops under mu while the
// socket is open, and Close waits for them before it releases fd, so a
// descriptor number is never reused under a call.
type udpSocket struct {
	fd int

	mu     sync.Mutex
	closed atomic.Bool // set under mu; read lock-free after a syscall
	ops    sync.WaitGroup
}

// begin registers a socket call, or reports that the socket is closed.
func (s *udpSocket) begin() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return false
	}
	s.ops.Add(1)
	return true
}

// Receive is one read(2) into a pooled buffer, copied out at the datagram's
// exact length; unlike recvfrom it allocates no source address. Close wakes
// a blocked call through shutdown(SHUT_RD), which makes the read return 0
// bytes; the closed flag, not the length, tells that wake-up from a real
// empty datagram.
func (s *udpSocket) Receive() ([]byte, error) {
	if !s.begin() {
		return nil, ErrClosed
	}
	defer s.ops.Done()
	buf := datagrams.Get().(*[maxDatagram]byte)
	defer datagrams.Put(buf)
	for {
		sz, err := syscall.Read(s.fd, buf[:])
		switch {
		case s.closed.Load():
			return nil, ErrClosed
		case err == syscall.EINTR:
			continue
		case err != nil:
			return nil, fmt.Errorf("transport: receive: %w", err)
		}
		return bytes.Clone(buf[:sz]), nil
	}
}

// send is one sendto of data to the given address.
func (s *udpSocket) send(data []byte, to syscall.SockaddrInet4) error {
	if len(data) > maxDatagram {
		return fmt.Errorf("transport: frame of %d bytes exceeds datagram limit", len(data))
	}
	if !s.begin() {
		return ErrClosed
	}
	defer s.ops.Done()
	if err := syscall.Sendto(s.fd, data, 0, &to); err != nil {
		return fmt.Errorf("transport: send: %w", err)
	}
	return nil
}

// Close marks the socket closed, wakes a blocked Receive, waits for the
// calls in flight and releases the descriptor.
func (s *udpSocket) Close() error {
	s.mu.Lock()
	already := s.closed.Swap(true)
	s.mu.Unlock()
	if already {
		return nil
	}
	// An unconnected UDP socket answers ENOTCONN, but the shutdown takes
	// effect all the same: a read returns at once, now and from then on.
	_ = syscall.Shutdown(s.fd, syscall.SHUT_RD)
	s.ops.Wait()
	return syscall.Close(s.fd)
}
