package transport

import (
	"bytes"
	"net"
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

func recvWithin(t *testing.T, ch <-chan []byte, d time.Duration) []byte {
	t.Helper()
	select {
	case msg, ok := <-ch:
		if !ok {
			t.Fatal("channel closed")
		}
		return msg
	case <-time.After(d):
		t.Fatal("timed out waiting for frame")
		return nil
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
				got := recvWithin(t, node.Downlink(), time.Second)
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
				got[string(recvWithin(t, fx.ctrl.Uplink(), time.Second))] = true
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
			got := recvWithin(t, fx.a.Downlink(), time.Second)
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
	select {
	case msg := <-node.Downlink():
		t.Errorf("uplink leaked to downlink: %q", msg)
	case <-time.After(20 * time.Millisecond):
	}
	if err := ctrl.Multicast([]byte("down")); err != nil {
		t.Fatal(err)
	}
	got := recvWithin(t, ctrl.Uplink(), time.Second)
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
			// Channels are closed.
			if _, ok := <-fx.a.Downlink(); ok {
				t.Error("downlink channel still open")
			}
			if _, ok := <-fx.ctrl.Uplink(); ok {
				t.Error("uplink channel still open")
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
	if nets[0].group.String() == nets[1].group.String() {
		t.Fatalf("both networks multicast to %v", nets[0].group)
	}
	payloads := [2]string{"network 0", "network 1"}
	for i, udp := range nets {
		if err := udp.Controller().Multicast([]byte(payloads[i])); err != nil {
			t.Fatal(err)
		}
	}
	for i := range nets {
		for j, node := range nodes[i] {
			if got := recvWithin(t, node.Downlink(), time.Second); string(got) != payloads[i] {
				t.Errorf("network %d node %d: got %q, want %q", i, j, got, payloads[i])
			}
		}
	}
	// A second copy or the other network's frame would arrive as fast as
	// the first did.
	for i := range nets {
		for j, node := range nodes[i] {
			select {
			case got := <-node.Downlink():
				t.Errorf("network %d node %d: stray frame %q", i, j, got)
			case <-time.After(50 * time.Millisecond):
			}
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
		local := node.(*udpNode).conn.LocalAddr().(*net.UDPAddr)
		if local.IP.IsUnspecified() || !local.IP.IsMulticast() {
			t.Errorf("node %d bound to %v, want a multicast group address", i, local)
		}
		if local.String() != udp.group.String() || local.Port != ctrl.Port {
			t.Errorf("node %d bound to %v, want %v at the controller's port %d", i, local, udp.group, ctrl.Port)
		}
		if err := node.SendUplink([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := map[byte]bool{}
	for i := 0; i < n; i++ {
		got[recvWithin(t, udp.Controller().Uplink(), time.Second)[0]] = true
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
	done := make(chan struct{})
	go func() {
		<-node.Downlink() // closes on shutdown
		close(done)
	}()
	if err := udp.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("node loop did not exit on close")
	}
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

	const n = 400
	for i := 0; i < n; i++ {
		if err := ctrl.Multicast([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if err := node.SendUplink([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Give the filter goroutine a moment to drain.
	time.Sleep(50 * time.Millisecond)
	down := 0
	for {
		select {
		case <-node.Downlink():
			down++
			continue
		default:
		}
		break
	}
	up := 0
	for {
		select {
		case <-ctrl.Uplink():
			up++
			continue
		default:
		}
		break
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
	got := recvWithin(t, node.Downlink(), time.Second)
	if string(got) != "hello" {
		t.Errorf("got %q", got)
	}
	// Out-of-range probabilities saturate: below 0 drops nothing, above 1
	// drops everything.
	clamped := NewLossyNetwork(NewMemNetwork(), -1, 2, 1)
	defer clamped.Close()
	cn, err := clamped.NewNode()
	if err != nil {
		t.Fatal(err)
	}
	if err := clamped.Controller().Multicast([]byte("down")); err != nil {
		t.Fatal(err)
	}
	if got := recvWithin(t, cn.Downlink(), time.Second); string(got) != "down" {
		t.Errorf("downlink at loss -1: got %q", got)
	}
	for i := 0; i < 64; i++ {
		if err := cn.SendUplink([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case msg := <-clamped.Controller().Uplink():
		t.Errorf("uplink at loss 2 delivered %v", msg)
	default:
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
	if err := lossy.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-node.Downlink():
		if ok {
			t.Error("expected closed channel")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("filtered downlink did not close")
	}
}
