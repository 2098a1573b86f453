package transport

import (
	"bytes"
	"fmt"
	"net"
	"syscall"
	"testing"
	"time"

	"densevlc/internal/frame"
	"densevlc/internal/testutil"
)

// networks under test, built fresh per case.
type netFixture struct {
	name string
	net  Network
	ctrl ControllerLink
	a, b NodeLink
}

// newNode registers a node link on net, failing the test on error.
func newNode(t *testing.T, net Network) NodeLink {
	t.Helper()
	node, err := net.NewNode()
	if err != nil {
		t.Fatal(err)
	}
	return node
}

func fixtures(t *testing.T) []netFixture {
	t.Helper()
	mem := NewMemNetwork()
	udp, err := NewUDPNetwork()
	if err != nil {
		t.Fatal(err)
	}
	udpA, udpB := newNode(t, udp), newNode(t, udp)
	return []netFixture{
		{"mem", mem, mem.Controller(), newNode(t, mem), newNode(t, mem)},
		{"udp", udp, udp.Controller(), udpA, udpB},
	}
}

// received is the outcome of one Receive call.
type received struct {
	msg []byte
	err error
}

// receiver is either end of a link: a node's downlink or the controller's
// uplink.
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

func TestMulticastReachesAllNodes(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	for _, fx := range fixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			defer fx.net.Close()
			payload := []byte("beamspot update")
			if err := fx.ctrl.Multicast(payload); err != nil {
				t.Fatal(err)
			}
			for _, node := range []NodeLink{fx.a, fx.b} {
				got := receiveWithin(t, node, time.Second)
				if !bytes.Equal(got, payload) {
					t.Errorf("got %q", got)
				}
			}
		})
	}
}

func TestUplinkReachesController(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	for _, fx := range fixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			defer fx.net.Close()
			if err := fx.a.SendUplink([]byte("report-a")); err != nil {
				t.Fatal(err)
			}
			if err := fx.b.SendUplink([]byte("report-b")); err != nil {
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
			got := receiveWithin(t, fx.a, time.Second)
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
	node := newNode(t, mem)
	if err := node.SendUplink([]byte("up")); err != nil {
		t.Fatal(err)
	}
	receiveNothing(t, node, 20*time.Millisecond, "uplink leaked to downlink")
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
			if err := fx.a.SendUplink([]byte("x")); err != ErrClosed {
				t.Errorf("uplink after close: %v", err)
			}
			if _, err := fx.a.Receive(); err != ErrClosed {
				t.Errorf("receive after close: %v", err)
			}
			if _, err := fx.ctrl.Receive(); err != ErrClosed {
				t.Errorf("controller receive after close: %v", err)
			}
			// New nodes rejected after close.
			if _, err := fx.net.NewNode(); err != ErrClosed {
				t.Errorf("node after close: %v", err)
			}
			// Double close is fine.
			if err := fx.net.Close(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestUDPNetworksDoNotCrossTalk opens two UDP networks at once: each
// multicast reaches every node of its own network exactly once and no node
// of the other.
func TestUDPNetworksDoNotCrossTalk(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	var nets [2]*UDPNetwork
	var nodes [2][]NodeLink
	for i := range nets {
		udp, err := NewUDPNetwork()
		if err != nil {
			t.Fatal(err)
		}
		defer udp.Close()
		nets[i] = udp
		for j := 0; j < 3; j++ {
			nodes[i] = append(nodes[i], newNode(t, udp))
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
		for j, node := range nodes[i] {
			if got := receiveWithin(t, node, time.Second); string(got) != payloads[i] {
				t.Errorf("network %d node %d: got %q, want %q", i, j, got, payloads[i])
			}
		}
	}
	// A second copy or the other network's frame would arrive as fast as
	// the first did.
	for i := range nets {
		for j, node := range nodes[i] {
			receiveNothing(t, node, 50*time.Millisecond, fmt.Sprintf("network %d node %d: stray frame", i, j))
		}
	}
}

// TestUDPNodesBindTheGroup checks every node socket's local address: the
// network's group address at the controller's port, never the wildcard.
// Uplinks from those sockets still reach the controller.
func TestUDPNodesBindTheGroup(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	udp, err := NewUDPNetwork()
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	ctrl := udp.ControllerAddr()
	if !ctrl.IP.IsLoopback() {
		t.Errorf("controller bound to %v, want a loopback address", ctrl)
	}
	const n = 4
	for i := 0; i < n; i++ {
		node := newNode(t, udp)
		sa, err := syscall.Getsockname(node.(*udpNode).fd)
		if err != nil {
			t.Fatal(err)
		}
		in4 := sa.(*syscall.SockaddrInet4)
		local := &net.UDPAddr{IP: net.IP(in4.Addr[:]), Port: in4.Port}
		if local.IP.IsUnspecified() || !local.IP.IsMulticast() {
			t.Errorf("node %d bound to %v, want a multicast group address", i, local)
		}
		if in4.Addr != groupIP || local.Port != ctrl.Port {
			t.Errorf("node %d bound to %v, want %v at the controller's port %d", i, local, net.IP(groupIP[:]), ctrl.Port)
		}
		if err := node.SendUplink([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := map[byte]bool{}
	for i := 0; i < n; i++ {
		got[receiveWithin(t, udp.Controller(), time.Second)[0]] = true
	}
	if len(got) != n {
		t.Errorf("controller heard uplinks %v, want all %d nodes", got, n)
	}
}

func TestUDPCloseUnblocksLoops(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	udp, err := NewUDPNetwork()
	if err != nil {
		t.Fatal(err)
	}
	node := newNode(t, udp)
	pending := receiveAsync(node)
	time.Sleep(20 * time.Millisecond) // let Receive block
	if err := udp.Close(); err != nil {
		t.Fatal(err)
	}
	receiveClosed(t, pending, 2*time.Second, "node receive on close")
	// New nodes rejected after close.
	if _, err := udp.NewNode(); err != ErrClosed {
		t.Errorf("node after close: %v", err)
	}
	if err := udp.Close(); err != nil {
		t.Error("double close should be nil")
	}
}

func TestOversizedDatagramRejected(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	udp, err := NewUDPNetwork()
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	node := newNode(t, udp)
	big := make([]byte, maxDatagram+1)
	if err := udp.Controller().Multicast(big); err == nil {
		t.Error("oversized multicast accepted")
	}
	if err := node.SendUplink(big); err == nil {
		t.Error("oversized uplink accepted")
	}
}

func TestMemOverflowDropsInsteadOfBlocking(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	mem := NewMemNetwork()
	defer mem.Close()
	ctrl := mem.Controller()
	newNode(t, mem) // never drained
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
	lossy := NewLossyNetwork(mem, 0.5, 0.5, 7)
	defer lossy.Close()
	ctrl := lossy.Controller()
	node, err := lossy.NewNode()
	if err != nil {
		t.Fatal(err)
	}

	const n = 200 // within queueSize, so the in-memory queues drop nothing
	for i := 0; i < n; i++ {
		if err := ctrl.Multicast([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if err := node.SendUplink([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// The in-memory queue holds every frame, so the lossy link yields the
	// survivors and then blocks. Once it has taken the last frame from the
	// queue, closing the link ends the count without losing that frame.
	survivors := make(chan int, 1)
	go func() {
		down := 0
		for {
			if _, err := node.Receive(); err != nil {
				survivors <- down
				return
			}
			down++
		}
	}()
	inner := node.(*lossyNode).inner.(*memNode)
	for len(inner.down) > 0 {
		time.Sleep(time.Millisecond)
	}
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	down := <-survivors
	// Every surviving uplink sits in the in-memory queue; take them all.
	up := 0
	for len(mem.uplink) > 0 {
		receiveWithin(t, ctrl, time.Second)
		up++
	}
	check := func(name string, got int) {
		t.Helper()
		if got < n/4 || got > 3*n/4 {
			t.Errorf("%s: %d/%d delivered at 50%% loss", name, got, n)
		}
	}
	check("downlink", down)
	check("uplink", up)
}

func TestLossyNetworkZeroLossTransparent(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	mem := NewMemNetwork()
	lossy := NewLossyNetwork(mem, 0, 0, 1)
	defer lossy.Close()
	node, err := lossy.NewNode()
	if err != nil {
		t.Fatal(err)
	}
	if err := lossy.Controller().Multicast([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	got := receiveWithin(t, node, time.Second)
	if string(got) != "hello" {
		t.Errorf("got %q", got)
	}
	// Out-of-range probabilities saturate: below 0 drops nothing, above 1
	// drops everything.
	inner := NewMemNetwork()
	clamped := NewLossyNetwork(inner, -1, 2, 1)
	defer clamped.Close()
	cn, err := clamped.NewNode()
	if err != nil {
		t.Fatal(err)
	}
	if err := clamped.Controller().Multicast([]byte("down")); err != nil {
		t.Fatal(err)
	}
	if got := receiveWithin(t, cn, time.Second); string(got) != "down" {
		t.Errorf("downlink at loss -1: got %q", got)
	}
	for i := 0; i < 64; i++ {
		if err := cn.SendUplink([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(inner.uplink); n != 0 {
		t.Errorf("uplink at loss 2: %d of 64 frames survived", n)
	}
}

func TestLossyNetworkCloseUnblocksFilter(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	mem := NewMemNetwork()
	lossy := NewLossyNetwork(mem, 0.1, 0, 2)
	node, err := lossy.NewNode()
	if err != nil {
		t.Fatal(err)
	}
	pending := receiveAsync(node)
	time.Sleep(20 * time.Millisecond) // let Receive block
	if err := lossy.Close(); err != nil {
		t.Fatal(err)
	}
	receiveClosed(t, pending, 2*time.Second, "filtered downlink on close")
}

// closeCase builds one network with one node link for the close tests.
type closeCase struct {
	name string
	open func(t *testing.T) (Network, NodeLink)
}

func closeCases() []closeCase {
	withNode := func(t *testing.T, net Network) (Network, NodeLink) {
		t.Helper()
		return net, newNode(t, net)
	}
	udp := func(t *testing.T) Network {
		t.Helper()
		u, err := NewUDPNetwork()
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	return []closeCase{
		{"mem", func(t *testing.T) (Network, NodeLink) { return withNode(t, NewMemNetwork()) }},
		{"udp", func(t *testing.T) (Network, NodeLink) { return withNode(t, udp(t)) }},
		{"lossy-mem", func(t *testing.T) (Network, NodeLink) {
			return withNode(t, NewLossyNetwork(NewMemNetwork(), 0, 0, 3))
		}},
		{"lossy-udp", func(t *testing.T) (Network, NodeLink) {
			return withNode(t, NewLossyNetwork(udp(t), 0, 0, 3))
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
	recv   func(net Network, node NodeLink) receiver
	send   func(net Network, node NodeLink, data []byte) error
}

var linkEnds = []linkEnd{
	{
		"",
		func(_ Network, node NodeLink) receiver { return node },
		func(net Network, _ NodeLink, data []byte) error { return net.Controller().Multicast(data) },
	},
	{
		"ctrl-",
		func(net Network, _ NodeLink) receiver { return net.Controller() },
		func(_ Network, node NodeLink, data []byte) error { return node.SendUplink(data) },
	},
}

// TestReceiveUnblocksOnClose: on every implementation, at a node and at
// the controller, closing the network wakes a Receive blocked on an idle
// link, a Receive after close returns ErrClosed at once even with a frame
// queued, and a real empty datagram is delivered as an empty frame rather
// than taken for the close. Closing a node's link alone wakes its Receive
// the same way.
func TestReceiveUnblocksOnClose(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	for _, c := range closeCases() {
		for _, end := range linkEnds {
			t.Run(c.name+"/"+end.prefix+"network", func(t *testing.T) {
				net, node := c.open(t)
				link := end.recv(net, node)
				pending := receiveAsync(link)
				time.Sleep(20 * time.Millisecond) // let Receive block
				if err := net.Close(); err != nil {
					t.Fatal(err)
				}
				receiveClosed(t, pending, time.Second, "blocked")
				receiveClosed(t, receiveAsync(link), 100*time.Millisecond, "after close")
			})
			t.Run(c.name+"/"+end.prefix+"queued", func(t *testing.T) {
				net, node := c.open(t)
				if err := end.send(net, node, []byte("late")); err != nil {
					t.Fatal(err)
				}
				time.Sleep(20 * time.Millisecond) // let the datagram land
				if err := net.Close(); err != nil {
					t.Fatal(err)
				}
				receiveClosed(t, receiveAsync(end.recv(net, node)), 100*time.Millisecond, "queued frame after close")
			})
			t.Run(c.name+"/"+end.prefix+"empty", func(t *testing.T) {
				net, node := c.open(t)
				defer net.Close()
				link := end.recv(net, node)
				if err := end.send(net, node, nil); err != nil {
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
			net, node := c.open(t)
			defer net.Close()
			pending := receiveAsync(node)
			time.Sleep(20 * time.Millisecond)
			if err := node.Close(); err != nil {
				t.Fatal(err)
			}
			receiveClosed(t, pending, time.Second, "blocked")
			receiveClosed(t, receiveAsync(node), 100*time.Millisecond, "after close")
			if err := node.SendUplink([]byte("x")); err != ErrClosed {
				t.Errorf("uplink on a closed link: %v", err)
			}
			if err := node.Close(); err != nil {
				t.Errorf("second close: %v", err)
			}
		})
	}
}
