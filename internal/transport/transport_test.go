package transport

import (
	"bytes"
	"fmt"
	"syscall"
	"testing"
	"time"

	"densevlc/internal/frame"
	"densevlc/internal/testutil"
)

// netFixture is one network under test with two transmitter and two
// receiver links, built fresh per case.
type netFixture struct {
	name string
	net  Network
	ctrl ControllerLink
	txs  [2]TXLink
	rxs  [2]NodeLink
}

// newTX registers a transmitter link on net, failing the test on error.
func newTX(t *testing.T, net Network) TXLink {
	t.Helper()
	tx, err := net.NewTX()
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

// newRX registers a receiver link on net, failing the test on error.
func newRX(t *testing.T, net Network) NodeLink {
	t.Helper()
	rx, err := net.NewNode()
	if err != nil {
		t.Fatal(err)
	}
	return rx
}

// newUDP opens a UDP network, failing the test on error.
func newUDP(t *testing.T) *UDPNetwork {
	t.Helper()
	udp, err := NewUDPNetwork()
	if err != nil {
		t.Fatal(err)
	}
	return udp
}

// fixtures builds one fresh network of each kind, each with its links: in
// memory, UDP, and both behind a lossless LossyNetwork.
func fixtures(t *testing.T) []netFixture {
	t.Helper()
	fxs := []netFixture{
		{name: "mem", net: NewMemNetwork()},
		{name: "udp", net: newUDP(t)},
		{name: "lossy-mem", net: NewLossyNetwork(NewMemNetwork(), 0, 3)},
		{name: "lossy-udp", net: NewLossyNetwork(newUDP(t), 0, 3)},
	}
	for k := range fxs {
		fx := &fxs[k]
		fx.ctrl = fx.net.Controller()
		for j := range fx.txs {
			fx.txs[j] = newTX(t, fx.net)
		}
		for j := range fx.rxs {
			fx.rxs[j] = newRX(t, fx.net)
		}
	}
	return fxs
}

// received is the outcome of one Receive call.
type received struct {
	msg []byte
	err error
}

// receiver is either end of a link: a transmitter's downlink or the
// controller's uplink.
type receiver interface {
	Receive() ([]byte, error)
}

// receiveAsync runs one link.Receive on its own goroutine. The goroutine
// ends when a frame arrives or the link closes.
func receiveAsync(link receiver) <-chan received {
	ch := make(chan received, 1)
	go func() {
		msg, err := link.Receive()
		ch <- received{msg, err}
	}()
	return ch
}

// receiveWithin fails the test unless link yields a frame within d.
func receiveWithin(t *testing.T, link receiver, d time.Duration) []byte {
	t.Helper()
	select {
	case r := <-receiveAsync(link):
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r.msg
	case <-time.After(d):
		t.Fatal("timed out waiting for frame")
		return nil
	}
}

// receiveNothing fails the test if link yields a frame within d. The
// pending Receive returns once the test closes the link.
func receiveNothing(t *testing.T, link receiver, d time.Duration, what string) {
	t.Helper()
	select {
	case r := <-receiveAsync(link):
		t.Errorf("%s: %q, %v", what, r.msg, r.err)
	case <-time.After(d):
	}
}

// TestMulticastReachesAllNodes: on every implementation, a multicast
// reaches each transmitter link exactly once, and each receiver's uplink
// reaches the controller.
func TestMulticastReachesAllNodes(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	for _, fx := range fixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			defer fx.net.Close()
			payload := []byte("beamspot update")
			if err := fx.ctrl.Multicast(payload); err != nil {
				t.Fatal(err)
			}
			for k, tx := range fx.txs {
				if got := receiveWithin(t, tx, time.Second); !bytes.Equal(got, payload) {
					t.Errorf("TX %d: got %q", k, got)
				}
			}
			// A second copy would arrive as fast as the first did.
			for k, tx := range fx.txs {
				receiveNothing(t, tx, 20*time.Millisecond, fmt.Sprintf("TX %d: second copy", k))
			}
			for k, rx := range fx.rxs {
				if err := rx.SendUplink([]byte{byte(k)}); err != nil {
					t.Fatal(err)
				}
			}
			got := map[byte]bool{}
			for range fx.rxs {
				got[receiveWithin(t, fx.ctrl, time.Second)[0]] = true
			}
			if len(got) != len(fx.rxs) {
				t.Errorf("controller heard uplinks %v, want all %d receivers", got, len(fx.rxs))
			}
		})
	}
}

func TestUplinkReachesController(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	for _, fx := range fixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			defer fx.net.Close()
			if err := fx.rxs[0].SendUplink([]byte("report-a")); err != nil {
				t.Fatal(err)
			}
			if err := fx.rxs[1].SendUplink([]byte("report-b")); err != nil {
				t.Fatal(err)
			}
			got := map[string]bool{}
			for i := 0; i < 2; i++ {
				got[string(receiveWithin(t, fx.ctrl, time.Second))] = true
			}
			if !got["report-a"] || !got["report-b"] {
				t.Errorf("uplinks = %v", got)
			}
		})
	}
}

func TestRealFrameOverBothTransports(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	// End-to-end: a real Table 3 downlink survives each transport.
	d := frame.Downlink{
		Eth: frame.Eth{EtherType: frame.EtherTypeVLC},
		PHY: frame.PHY{TXIDMask: frame.MaskOf(7, 9)},
		MAC: frame.MAC{Dst: 0x0101, Src: 0, Protocol: 1, Payload: []byte("data over the bus")},
	}
	wire, err := d.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	for _, fx := range fixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			defer fx.net.Close()
			if err := fx.ctrl.Multicast(wire); err != nil {
				t.Fatal(err)
			}
			got := receiveWithin(t, fx.txs[0], time.Second)
			decoded, _, err := frame.DecodeDownlink(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(decoded.MAC.Payload, d.MAC.Payload) {
				t.Error("payload mismatch after transport")
			}
		})
	}
}

func TestIsolationBetweenDirections(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	// Uplink traffic must not appear on downlinks and vice versa.
	mem := NewMemNetwork()
	defer mem.Close()
	ctrl := mem.Controller()
	tx, rx := newTX(t, mem), newRX(t, mem)
	if err := rx.SendUplink([]byte("up")); err != nil {
		t.Fatal(err)
	}
	receiveNothing(t, tx, 20*time.Millisecond, "uplink leaked to downlink")
	if err := ctrl.Multicast([]byte("down")); err != nil {
		t.Fatal(err)
	}
	got := receiveWithin(t, ctrl, time.Second)
	if string(got) != "up" {
		t.Errorf("uplink = %q", got)
	}
}

func TestClosedNetworkErrors(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	for _, fx := range fixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			fx.net.Close()
			if err := fx.ctrl.Multicast([]byte("x")); err != ErrClosed {
				t.Errorf("multicast after close: %v", err)
			}
			if err := fx.rxs[0].SendUplink([]byte("x")); err != ErrClosed {
				t.Errorf("uplink after close: %v", err)
			}
			if _, err := fx.txs[0].Receive(); err != ErrClosed {
				t.Errorf("receive after close: %v", err)
			}
			if _, err := fx.ctrl.Receive(); err != ErrClosed {
				t.Errorf("controller receive after close: %v", err)
			}
			// New links rejected after close.
			if _, err := fx.net.NewTX(); err != ErrClosed {
				t.Errorf("TX after close: %v", err)
			}
			if _, err := fx.net.NewNode(); err != ErrClosed {
				t.Errorf("RX after close: %v", err)
			}
			// Double close is fine.
			if err := fx.net.Close(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestUDPNetworksDoNotCrossTalk opens two UDP networks at once: each
// multicast reaches every transmitter of its own network exactly once and
// no transmitter of the other.
func TestUDPNetworksDoNotCrossTalk(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	var nets [2]*UDPNetwork
	var txs [2][]TXLink
	for i := range nets {
		udp := newUDP(t)
		defer udp.Close()
		nets[i] = udp
		for j := 0; j < 3; j++ {
			txs[i] = append(txs[i], newTX(t, udp))
		}
	}
	if nets[0].port == nets[1].port {
		t.Fatalf("both networks multicast to port %d", nets[0].port)
	}
	payloads := [2]string{"network 0", "network 1"}
	for i, udp := range nets {
		if err := udp.Controller().Multicast([]byte(payloads[i])); err != nil {
			t.Fatal(err)
		}
	}
	for i := range nets {
		for j, tx := range txs[i] {
			if got := receiveWithin(t, tx, time.Second); string(got) != payloads[i] {
				t.Errorf("network %d TX %d: got %q, want %q", i, j, got, payloads[i])
			}
		}
	}
	// A second copy or the other network's frame would arrive as fast as
	// the first did.
	for i := range nets {
		for j, tx := range txs[i] {
			receiveNothing(t, tx, 50*time.Millisecond, fmt.Sprintf("network %d TX %d: stray frame", i, j))
		}
	}
}

// sockAddr returns the local address of the UDP socket behind link, seen
// through a lossless LossyNetwork if need be.
func sockAddr(t *testing.T, link any) *syscall.SockaddrInet4 {
	t.Helper()
	var s *udpSocket
	switch l := link.(type) {
	case *lossyNode:
		return sockAddr(t, l.NodeLink)
	case *udpSocket:
		s = l
	case *udpNode:
		s = l.sock
	default:
		t.Fatalf("%T is no UDP link", link)
	}
	sa, err := syscall.Getsockname(s.fd)
	if err != nil {
		t.Fatal(err)
	}
	return sa.(*syscall.SockaddrInet4)
}

// TestUDPNodesBindTheGroup checks every socket's local address, directly
// and behind a LossyNetwork: a transmitter's is the network's group address
// at the controller's port, a receiver's is 127.0.0.1, never the wildcard
// or the group. Uplinks from the receiver sockets reach the controller.
func TestUDPNodesBindTheGroup(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	for _, wrap := range []struct {
		name string
		net  func(*UDPNetwork) Network
	}{
		{"udp", func(u *UDPNetwork) Network { return u }},
		{"lossy-udp", func(u *UDPNetwork) Network { return NewLossyNetwork(u, 0, 3) }},
	} {
		t.Run(wrap.name, func(t *testing.T) {
			udp := newUDP(t)
			defer udp.Close()
			net, ctrl := wrap.net(udp), udp.ControllerAddr()
			if !ctrl.IP.IsLoopback() {
				t.Errorf("controller bound to %v, want a loopback address", ctrl)
			}
			const n = 4
			for i := 0; i < n; i++ {
				if sa := sockAddr(t, newTX(t, net)); sa.Addr != groupIP || sa.Port != ctrl.Port {
					t.Errorf("TX %d bound to %v:%d, want the group %v at the controller's port %d", i, sa.Addr, sa.Port, groupIP, ctrl.Port)
				}
				rx := newRX(t, net)
				if sa := sockAddr(t, rx); sa.Addr != loopback || sa.Port == 0 || sa.Port == ctrl.Port {
					t.Errorf("RX %d bound to %v:%d, want 127.0.0.1 at a port of its own", i, sa.Addr, sa.Port)
				}
				if err := rx.SendUplink([]byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			got := map[byte]bool{}
			for i := 0; i < n; i++ {
				got[receiveWithin(t, udp.Controller(), time.Second)[0]] = true
			}
			if len(got) != n {
				t.Errorf("controller heard uplinks %v, want all %d receivers", got, n)
			}
		})
	}
}

// TestUDPControllerHoldsAFleetOfReports: the controller socket's receive
// buffer, read back from the kernel, holds a report from each of the
// wire's 255 receiver slots, and 255 report-sized uplinks sent at once all
// arrive.
func TestUDPControllerHoldsAFleetOfReports(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	udp := newUDP(t)
	defer udp.Close()
	if got, err := syscall.GetsockoptInt(udp.ctrl.fd, syscall.SOL_SOCKET, syscall.SO_RCVBUF); err != nil {
		t.Fatal(err)
	} else if got < ctrlRcvbuf {
		t.Errorf("controller SO_RCVBUF = %d B, want at least %d", got, ctrlRcvbuf)
	}
	const fleet = 255
	report := make([]byte, 4+8*64+10) // 64 gains and a MAC header
	for i := 0; i < fleet; i++ {
		report[0] = byte(i)
		if err := newRX(t, udp).SendUplink(report); err != nil {
			t.Fatal(err)
		}
	}
	heard := map[byte]bool{}
	for range fleet {
		heard[receiveWithin(t, udp.Controller(), time.Second)[0]] = true
	}
	if len(heard) != fleet {
		t.Errorf("controller heard %d of %d receivers", len(heard), fleet)
	}
}

func TestUDPCloseUnblocksLoops(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	udp := newUDP(t)
	tx := newTX(t, udp)
	pending := receiveAsync(tx)
	time.Sleep(20 * time.Millisecond) // let Receive block
	if err := udp.Close(); err != nil {
		t.Fatal(err)
	}
	receiveClosed(t, pending, 2*time.Second, "TX receive on close")
	// New links rejected after close.
	if _, err := udp.NewTX(); err != ErrClosed {
		t.Errorf("TX after close: %v", err)
	}
	if _, err := udp.NewNode(); err != ErrClosed {
		t.Errorf("RX after close: %v", err)
	}
	if err := udp.Close(); err != nil {
		t.Error("double close should be nil")
	}
}

func TestOversizedDatagramRejected(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	udp := newUDP(t)
	defer udp.Close()
	rx := newRX(t, udp)
	big := make([]byte, maxDatagram+1)
	if err := udp.Controller().Multicast(big); err == nil {
		t.Error("oversized multicast accepted")
	}
	if err := rx.SendUplink(big); err == nil {
		t.Error("oversized uplink accepted")
	}
}

func TestMemOverflowDropsInsteadOfBlocking(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	mem := NewMemNetwork()
	defer mem.Close()
	ctrl := mem.Controller()
	newTX(t, mem) // never drained
	for i := 0; i < queueSize+50; i++ {
		if err := ctrl.Multicast([]byte{byte(i)}); err != nil {
			t.Fatalf("multicast %d: %v", i, err)
		}
	}
	// Reaching here without deadlock is the assertion.
}

func TestLossyNetworkDropRates(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	mem := NewMemNetwork()
	lossy := NewLossyNetwork(mem, 0.5, 7)
	defer lossy.Close()
	ctrl := lossy.Controller()
	tx, rx := newTX(t, lossy), newRX(t, lossy)

	const n = 200 // within queueSize, so the in-memory queues drop nothing
	for i := 0; i < n; i++ {
		if err := ctrl.Multicast([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if err := rx.SendUplink([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// The downlink passes through: every multicast is queued for the
	// transmitter, in order.
	for i := 0; i < n; i++ {
		if got := receiveWithin(t, tx, time.Second); len(got) != 1 || got[0] != byte(i) {
			t.Fatalf("downlink frame %d: got %v", i, got)
		}
	}
	// Every surviving uplink sits in the in-memory queue; take them all.
	up := 0
	for len(mem.uplink) > 0 {
		receiveWithin(t, ctrl, time.Second)
		up++
	}
	if up < n/4 || up > 3*n/4 {
		t.Errorf("uplink: %d/%d delivered at 50%% loss", up, n)
	}
}

func TestLossyNetworkZeroLossTransparent(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	mem := NewMemNetwork()
	lossy := NewLossyNetwork(mem, 0, 1)
	defer lossy.Close()
	tx, rx := newTX(t, lossy), newRX(t, lossy)
	if err := lossy.Controller().Multicast([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if got := receiveWithin(t, tx, time.Second); string(got) != "hello" {
		t.Errorf("downlink: got %q", got)
	}
	if err := rx.SendUplink([]byte("report")); err != nil {
		t.Fatal(err)
	}
	if got := receiveWithin(t, lossy.Controller(), time.Second); string(got) != "report" {
		t.Errorf("uplink at loss 0: got %q", got)
	}
	// Out-of-range probabilities saturate: below 0 drops nothing, above 1
	// drops everything.
	for _, c := range []struct {
		loss float64
		want int
	}{{-1, 64}, {2, 0}} {
		inner := NewMemNetwork()
		clamped := NewLossyNetwork(inner, c.loss, 1)
		crx := newRX(t, clamped)
		for i := 0; i < 64; i++ {
			if err := crx.SendUplink([]byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if n := len(inner.uplink); n != c.want {
			t.Errorf("uplink at loss %v: %d of 64 frames survived, want %d", c.loss, n, c.want)
		}
		_ = clamped.Close()
	}
}

// TestLossyNetworkCloseUnblocksFilter: a transmitter's Receive on a lossy
// network, blocked on an idle link, returns ErrClosed when the network
// closes.
func TestLossyNetworkCloseUnblocksFilter(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	lossy := NewLossyNetwork(NewMemNetwork(), 0.1, 2)
	pending := receiveAsync(newTX(t, lossy))
	time.Sleep(20 * time.Millisecond) // let Receive block
	if err := lossy.Close(); err != nil {
		t.Fatal(err)
	}
	receiveClosed(t, pending, 2*time.Second, "downlink on close")
}

// closeCase builds one network with one transmitter and one receiver link
// for the close tests.
type closeCase struct {
	name string
	open func(t *testing.T) (Network, TXLink, NodeLink)
}

func closeCases() []closeCase {
	withLinks := func(t *testing.T, net Network) (Network, TXLink, NodeLink) {
		t.Helper()
		return net, newTX(t, net), newRX(t, net)
	}
	return []closeCase{
		{"mem", func(t *testing.T) (Network, TXLink, NodeLink) { return withLinks(t, NewMemNetwork()) }},
		{"udp", func(t *testing.T) (Network, TXLink, NodeLink) { return withLinks(t, newUDP(t)) }},
		{"lossy-mem", func(t *testing.T) (Network, TXLink, NodeLink) {
			return withLinks(t, NewLossyNetwork(NewMemNetwork(), 0, 3))
		}},
		{"lossy-udp", func(t *testing.T) (Network, TXLink, NodeLink) {
			return withLinks(t, NewLossyNetwork(newUDP(t), 0, 3))
		}},
	}
}

// receiveClosed fails the test unless the pending Receive returns
// ErrClosed within d.
func receiveClosed(t *testing.T, pending <-chan received, d time.Duration, what string) {
	t.Helper()
	select {
	case r := <-pending:
		if r.err != ErrClosed {
			t.Errorf("%s: Receive returned %q, %v; want ErrClosed", what, r.msg, r.err)
		}
	case <-time.After(d):
		t.Fatalf("%s: Receive still blocked after %v", what, d)
	}
}

// linkEnd is one end of a link under the close tests: the receiving side
// and how a frame reaches it.
type linkEnd struct {
	prefix string // subtest name prefix
	recv   func(net Network, tx TXLink) receiver
	send   func(net Network, rx NodeLink, data []byte) error
}

var linkEnds = []linkEnd{
	{
		"",
		func(_ Network, tx TXLink) receiver { return tx },
		func(net Network, _ NodeLink, data []byte) error { return net.Controller().Multicast(data) },
	},
	{
		"ctrl-",
		func(net Network, _ TXLink) receiver { return net.Controller() },
		func(_ Network, rx NodeLink, data []byte) error { return rx.SendUplink(data) },
	},
}

// TestReceiveUnblocksOnClose: on every implementation, at a transmitter
// and at the controller, closing the network wakes a Receive blocked on an
// idle link, a Receive after close returns ErrClosed at once even with a
// frame queued, and a real empty datagram is delivered as an empty frame
// rather than taken for the close. Closing a transmitter's link alone wakes
// its Receive the same way, and closing a receiver's link alone makes its
// SendUplink return ErrClosed.
func TestReceiveUnblocksOnClose(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	for _, c := range closeCases() {
		for _, end := range linkEnds {
			t.Run(c.name+"/"+end.prefix+"network", func(t *testing.T) {
				net, tx, _ := c.open(t)
				link := end.recv(net, tx)
				pending := receiveAsync(link)
				time.Sleep(20 * time.Millisecond) // let Receive block
				if err := net.Close(); err != nil {
					t.Fatal(err)
				}
				receiveClosed(t, pending, time.Second, "blocked")
				receiveClosed(t, receiveAsync(link), 100*time.Millisecond, "after close")
			})
			t.Run(c.name+"/"+end.prefix+"queued", func(t *testing.T) {
				net, tx, rx := c.open(t)
				if err := end.send(net, rx, []byte("late")); err != nil {
					t.Fatal(err)
				}
				time.Sleep(20 * time.Millisecond) // let the datagram land
				if err := net.Close(); err != nil {
					t.Fatal(err)
				}
				receiveClosed(t, receiveAsync(end.recv(net, tx)), 100*time.Millisecond, "queued frame after close")
			})
			t.Run(c.name+"/"+end.prefix+"empty", func(t *testing.T) {
				net, tx, rx := c.open(t)
				defer net.Close()
				link := end.recv(net, tx)
				if err := end.send(net, rx, nil); err != nil {
					t.Fatal(err)
				}
				select {
				case r := <-receiveAsync(link):
					if r.err != nil || len(r.msg) != 0 {
						t.Errorf("empty datagram: Receive returned %q, %v; want an empty frame", r.msg, r.err)
					}
				case <-time.After(time.Second):
					t.Fatal("empty datagram not delivered")
				}
				pending := receiveAsync(link)
				time.Sleep(20 * time.Millisecond)
				if err := net.Close(); err != nil {
					t.Fatal(err)
				}
				receiveClosed(t, pending, time.Second, "blocked after an empty frame")
			})
		}
		t.Run(c.name+"/link", func(t *testing.T) {
			net, tx, rx := c.open(t)
			defer net.Close()
			pending := receiveAsync(tx)
			time.Sleep(20 * time.Millisecond)
			if err := tx.Close(); err != nil {
				t.Fatal(err)
			}
			receiveClosed(t, pending, time.Second, "blocked")
			receiveClosed(t, receiveAsync(tx), 100*time.Millisecond, "after close")
			if err := rx.Close(); err != nil {
				t.Fatal(err)
			}
			if err := rx.SendUplink([]byte("x")); err != ErrClosed {
				t.Errorf("uplink on a closed link: %v", err)
			}
			for _, link := range []interface{ Close() error }{tx, rx} {
				if err := link.Close(); err != nil {
					t.Errorf("second close of %T: %v", link, err)
				}
			}
		})
	}
}
