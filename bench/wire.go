package main

import (
	"encoding/binary"
	"time"

	"densevlc/internal/alloc"
	"densevlc/internal/channel"
	"densevlc/internal/frame"
	"densevlc/internal/mac"
	"densevlc/internal/transport"
	"densevlc/internal/units"
)

// Offsets of the MAC protocol field: in a downlink wire frame behind the
// Ethernet and TX-ID headers, in an uplink MAC frame behind SFD, length and
// addresses.
const (
	macProtoOffset      = frame.SFDLen + frame.LengthLen + 2*frame.AddrLen
	downlinkProtoOffset = frame.EthHeaderLen + frame.TXIDLen + macProtoOffset
)

// downlinkProto reads the MAC protocol of a downlink wire frame without
// decoding it.
func downlinkProto(data []byte) uint16 {
	if len(data) < downlinkProtoOffset+frame.ProtocolLen {
		return 0
	}
	return binary.BigEndian.Uint16(data[downlinkProtoOffset:])
}

// uplinkProto reads the MAC protocol of an uplink MAC frame.
func uplinkProto(data []byte) uint16 {
	if len(data) < macProtoOffset+frame.ProtocolLen {
		return 0
	}
	return binary.BigEndian.Uint16(data[macProtoOffset:])
}

// epochClock is the untraced run's only instrument: one timestamp per
// allocation frame, plus a copy of the frame for the correctness checks
// after the run. An epoch runs from begins[k] to ends[k]; in the runtimes
// each epoch begins when the previous allocation frame is out.
type epochClock struct {
	origin       time.Time
	begins, ends []time.Duration
	frames       [][]byte
	// warmup is the epoch count after which the timed window opens; the
	// runtime counters are sampled at its edges.
	warmup, epochs  int
	atOpen, atClose runtimeSample
}

func newEpochClock(warmup, epochs int) *epochClock {
	c := &epochClock{
		origin: time.Now(),
		begins: make([]time.Duration, 0, epochs),
		ends:   make([]time.Duration, 0, epochs),
		frames: make([][]byte, 0, epochs),
		warmup: warmup, epochs: epochs,
	}
	c.begin()
	return c
}

func (c *epochClock) now() time.Duration { return time.Since(c.origin) }

// begin opens the next epoch now.
func (c *epochClock) begin() { c.begins = append(c.begins, c.now()) }

// tick closes the open epoch with the allocation frame that ends it. The
// runtime counters are sampled outside the timed window: after the last
// warm-up epoch's timestamp is known but before the first timed epoch
// begins, and after the last timed epoch ends.
func (c *epochClock) tick(wire []byte) {
	end := c.now()
	k := len(c.ends)
	c.ends = append(c.ends, end)
	c.frames = append(c.frames, wire)
	if c.epochs > c.warmup {
		switch k {
		case c.warmup - 1:
			c.atOpen = sampleRuntime()
		case c.epochs - 1:
			c.atClose = sampleRuntime()
		}
	}
}

// clockNet wraps a transport.Network so the controller link stamps the
// epoch clock on every allocation frame and, when tracing, every multicast
// and uplink becomes a span.
type clockNet struct {
	transport.Network
	ctrl *clockCtrl
	tr   *tracer
}

func wrapNetwork(net transport.Network, c *epochClock, tr *tracer) *clockNet {
	return &clockNet{Network: net, ctrl: &clockCtrl{ControllerLink: net.Controller(), clock: c, tr: tr}, tr: tr}
}

func (n *clockNet) Controller() transport.ControllerLink { return n.ctrl }

func (n *clockNet) NewNode() (transport.NodeLink, error) {
	link, err := n.Network.NewNode()
	if err != nil || n.tr == nil {
		return link, err
	}
	return tracedNode{NodeLink: link, tr: n.tr}, nil
}

type clockCtrl struct {
	transport.ControllerLink
	clock *epochClock
	tr    *tracer
}

func (c *clockCtrl) Multicast(data []byte) error {
	tok := c.tr.begin()
	err := c.ControllerLink.Multicast(data)
	proto := downlinkProto(data)
	if c.tr != nil {
		c.tr.endUnder(spanMulticast, tok, c.tr.epochID.Load(), len(data), proto)
	}
	if err == nil && proto == mac.ProtoAllocation {
		c.clock.tick(append([]byte(nil), data...))
		c.clock.begin()
		c.tr.endEpoch()
	}
	return err
}

type tracedNode struct {
	transport.NodeLink
	tr *tracer
}

func (n tracedNode) SendUplink(data []byte) error {
	tok := n.tr.begin()
	err := n.NodeLink.SendUplink(data)
	n.tr.endUnder(spanUplink, tok, n.tr.epochID.Load(), len(data), uplinkProto(data))
	return err
}

// timedPolicy wraps the controller's policy so every Allocate is a span
// under the tracer's solve parent.
type timedPolicy struct {
	inner alloc.Policy
	tr    *tracer
}

func (p timedPolicy) Name() string { return p.inner.Name() }

func (p timedPolicy) Allocate(env *alloc.Env, budget units.Watts) (channel.Swings, error) {
	tok := p.tr.begin()
	s, err := p.inner.Allocate(env, budget)
	p.tr.endUnder(spanSolve, tok, p.tr.solveParent.Load(), env.N()*env.M(), 0)
	return s, err
}
