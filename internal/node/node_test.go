package node

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"densevlc/internal/alloc"
	"densevlc/internal/clock"
	"densevlc/internal/frame"
	"densevlc/internal/geom"
	"densevlc/internal/mac"
	"densevlc/internal/mobility"
	"densevlc/internal/scenario"
	"densevlc/internal/stats"
	"densevlc/internal/testutil"
	"densevlc/internal/transport"
	"densevlc/internal/units"
)

func asyncTrajectories() []mobility.Trajectory {
	var out []mobility.Trajectory
	for _, p := range scenario.Scenario3.RXPositions() {
		out = append(out, mobility.Static{Pos: p})
	}
	return out
}

func TestAsyncRunDeliversFrames(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	res, err := RunContext(context.Background(), Config{
		Setup:            scenario.Default(),
		Trajectories:     asyncTrajectories(),
		Budget:           1.19,
		Sync:             clock.MethodNLOSVLC,
		Rounds:           2,
		FramesPerRX:      3,
		MeasurementNoise: 0.02,
		Seed:             1,
		Timeout:          30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 2 {
		t.Fatalf("%d rounds", len(res.Rounds))
	}
	for _, r := range res.Rounds {
		if !r.ReportsOK {
			t.Errorf("round %d: reports incomplete", r.Round)
		}
		if r.ActiveTXs == 0 {
			t.Errorf("round %d: no active TXs", r.Round)
		}
		if r.FramesSent == 0 {
			t.Errorf("round %d: nothing sent", r.Round)
		}
		// NLOS-synchronised beamspots deliver the vast majority of frames.
		if r.FramesAckd < r.FramesSent*7/10 {
			t.Errorf("round %d: only %d/%d frames acknowledged", r.Round, r.FramesAckd, r.FramesSent)
		}
		if r.SystemThroughput <= 0 {
			t.Errorf("round %d: zero analytic throughput", r.Round)
		}
	}
	if res.Delivered == 0 {
		t.Error("no payloads delivered to receivers")
	}
}

// noSyncConfig is one in-memory round with unsynchronised beamspots.
func noSyncConfig() Config {
	return Config{
		Setup:            scenario.Default(),
		Trajectories:     asyncTrajectories(),
		Budget:           1.19,
		Sync:             clock.MethodNone,
		Rounds:           1,
		FramesPerRX:      4,
		MeasurementNoise: 0.02,
		Seed:             2,
		Timeout:          30 * time.Second,
	}
}

func TestAsyncRunNoSyncCollapses(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	res, err := RunContext(context.Background(), noSyncConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := res.Rounds[0]
	// Without synchronisation multi-TX beamspots mostly fail on air.
	if r.FramesAckd > r.FramesSent/2 {
		t.Errorf("no-sync run acknowledged %d/%d frames", r.FramesAckd, r.FramesSent)
	}
}

func TestAsyncRunOverUDP(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	udp, err := transport.NewUDPNetwork()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunContext(context.Background(), Config{
		Setup:            scenario.Default(),
		Trajectories:     asyncTrajectories(),
		Budget:           0.6,
		Sync:             clock.MethodNLOSVLC,
		Rounds:           1,
		FramesPerRX:      2,
		MeasurementNoise: 0.02,
		Network:          udp,
		Seed:             3,
		Timeout:          30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rounds[0].ReportsOK {
		t.Error("reports incomplete over UDP")
	}
	if res.Rounds[0].FramesAckd == 0 {
		t.Error("no acknowledgements over UDP")
	}
}

// protoCounter counts the controller's multicasts by MAC protocol.
type protoCounter struct {
	transport.Network
	mu      sync.Mutex
	byProto map[uint16]int
}

func (c *protoCounter) Controller() transport.ControllerLink {
	return protoCountingLink{ControllerLink: c.Network.Controller(), c: c}
}

func (c *protoCounter) count(proto uint16) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.byProto[proto]
}

type protoCountingLink struct {
	transport.ControllerLink
	c *protoCounter
}

func (l protoCountingLink) Multicast(data []byte) error {
	if d, _, err := frame.DecodeDownlink(data); err == nil {
		l.c.mu.Lock()
		l.c.byProto[d.MAC.Protocol]++
		l.c.mu.Unlock()
	}
	return l.ControllerLink.Multicast(data)
}

// TestAsyncRunOnePilotSchedulePerRound pins the asynchronous controller's
// measurement phase to one pilot-schedule multicast per round, not one
// announcement per transmitter.
func TestAsyncRunOnePilotSchedulePerRound(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	const rounds = 3
	net := &protoCounter{Network: transport.NewMemNetwork(), byProto: map[uint16]int{}}
	res, err := RunContext(context.Background(), Config{
		Setup:            scenario.Default(),
		Trajectories:     asyncTrajectories(),
		Budget:           1.19,
		Sync:             clock.MethodNLOSVLC,
		Network:          net,
		Rounds:           rounds,
		FramesPerRX:      1,
		MeasurementNoise: 0.02,
		Seed:             1,
		Timeout:          30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rounds {
		if !r.ReportsOK {
			t.Errorf("round %d: reports incomplete", r.Round)
		}
	}
	if got := net.count(mac.ProtoPilot); got != rounds {
		t.Errorf("%d pilot multicasts in %d rounds, want %d", got, rounds, rounds)
	}
}

func TestAsyncRunMobility(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	traj := []mobility.Trajectory{
		mobility.Waypoints{
			Points: []geom.Vec{geom.V(0.75, 1.25, 0), geom.V(2.25, 1.25, 0)},
			Speed:  0.5,
		},
		mobility.Static{Pos: geom.V(2.25, 2.25, 0)},
	}
	res, err := RunContext(context.Background(), Config{
		Setup:            scenario.Default(),
		Trajectories:     traj,
		Budget:           0.9,
		Sync:             clock.MethodNLOSVLC,
		Rounds:           3,
		RoundDuration:    1,
		FramesPerRX:      2,
		MeasurementNoise: 0.02,
		Seed:             4,
		Timeout:          30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every round keeps delivering while the receiver moves.
	for _, r := range res.Rounds {
		if r.FramesAckd == 0 {
			t.Errorf("round %d: beamspot lost the moving receiver entirely", r.Round)
		}
	}
}

func TestAsyncRunErrors(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	if _, err := RunContext(context.Background(), Config{Setup: scenario.Default()}); err == nil {
		t.Error("no receivers accepted")
	}
	traj := asyncTrajectories()
	nan := math.NaN()
	for name, cfg := range map[string]Config{
		"negative measurement noise": {MeasurementNoise: -0.1},
		"negative budget":            {Budget: -1},
		"NaN budget":                 {Budget: units.Watts(nan)},
		"NaN measurement noise":      {MeasurementNoise: nan},
		"NaN trigger delta":          {Trigger: mac.Trigger{RelDelta: nan}},
		"negative trigger delta":     {Trigger: mac.Trigger{RelDelta: -0.05}},
		"negative max stale epochs":  {Trigger: mac.Trigger{RelDelta: 0.05, MaxStaleEpochs: -1}},
	} {
		cfg.Setup, cfg.Trajectories = scenario.Default(), traj
		if _, err := RunContext(context.Background(), cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// A non-finite κ is refused at bring-up, before any node starts.
	net := &countingNetwork{Network: transport.NewMemNetwork()}
	if _, err := RunContext(context.Background(), Config{Setup: scenario.Default(), Trajectories: traj, Rounds: 1,
		Policy: alloc.Heuristic{Kappa: nan, AllowPartial: true}, Budget: 1, Network: net}); err == nil {
		t.Error("NaN κ accepted")
	}
	if net.nodes != 0 {
		t.Errorf("NaN κ refused after %d nodes were started, want 0", net.nodes)
	}
}

// countingNetwork counts the transmitter and receiver links a run asks
// for.
type countingNetwork struct {
	transport.Network
	nodes int
}

func (n *countingNetwork) NewTX() (transport.TXLink, error) {
	n.nodes++
	return n.Network.NewTX()
}

func (n *countingNetwork) NewNode() (transport.NodeLink, error) {
	n.nodes++
	return n.Network.NewNode()
}

// uplinkLog is the receivers' uplink in the hub tests: every receiver's
// link sends into it, and it keeps the frames in the order they were sent.
type uplinkLog struct {
	mu     sync.Mutex
	frames [][]byte
}

func (l *uplinkLog) SendUplink(data []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.frames = append(l.frames, append([]byte(nil), data...))
	return nil
}

func (l *uplinkLog) Close() error { return nil }

// sent decodes the frames sent so far, failing the test on one that does
// not decode.
func (l *uplinkLog) sent(t *testing.T) []frame.MAC {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]frame.MAC, len(l.frames))
	for k, raw := range l.frames {
		m, _, _, err := frame.DecodeMAC(raw)
		if err != nil {
			t.Fatalf("uplink frame %d: %v", k, err)
		}
		out[k] = m
	}
	return out
}

// scenario3Hub is a noise-free hub over the paper room with the receivers
// at Scenario 3's positions, all of them sending into the returned log.
func scenario3Hub() (*Hub, *uplinkLog) {
	md := scenario.NewMedium(scenario.Default(), scenario.Scenario3.RXPositions(), clock.MethodNLOSVLC, 0)
	up := &uplinkLog{}
	links := make([]transport.NodeLink, len(md.Positions()))
	for i := range links {
		links[i] = up
	}
	return NewHub(md, links, 1), up
}

// acks decodes the acknowledgements among frames, in order.
func acks(t *testing.T, frames []frame.MAC) []mac.Ack {
	t.Helper()
	var out []mac.Ack
	for _, m := range frames {
		if m.Protocol != mac.ProtoAck {
			continue
		}
		ack, err := mac.DecodeAck(m.Payload)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ack)
	}
	return out
}

// TestHubConfigure: a transmitter's command reaches the medium the hub
// wraps, an out-of-range one is ignored, and the truth carries the
// deployment's parameters.
func TestHubConfigure(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	hub, _ := scenario3Hub()
	hub.Configure(7, 0, 0.9, true)
	hub.Configure(99, 0, 0.9, false)
	hub.do(func(md *scenario.Medium) {
		if sig := md.Signals(stats.NewRand(1), 0, []int{7}, nil); len(sig) != 1 || sig[0].Amplitude <= 0 {
			t.Errorf("TX 7's commanded swing does not reach RX 0: %+v", sig)
		}
		if md.Truth().Params != scenario.Default().Params {
			t.Error("truth params")
		}
	})
}

// TestHubPilotDeliversToAllReceivers: every receiver measures every pilot
// slot, and the slot that completes its round makes it send one channel
// report with a gain per transmitter.
func TestHubPilotDeliversToAllReceivers(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	hub, up := scenario3Hub()
	n := scenario.Default().Grid.N()
	for j := 0; j < n; j++ {
		if got := len(up.sent(t)); got != 0 {
			t.Fatalf("%d reports sent before pilot slot %d of %d", got, j, n)
		}
		hub.Pilot(j)
	}
	frames := up.sent(t)
	if len(frames) != 4 {
		t.Fatalf("%d uplink frames after a full pilot round, want one report per receiver (4)", len(frames))
	}
	reports := make([]mac.Report, 4)
	for _, m := range frames {
		if m.Protocol != mac.ProtoReport {
			t.Fatalf("uplink frame of protocol 0x%04x, want a report", m.Protocol)
		}
		rep, err := mac.DecodeReport(m.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if rep.RX < 0 || rep.RX >= 4 || reports[rep.RX].Gains != nil {
			t.Fatalf("report from RX %d: unknown or repeated receiver", rep.RX)
		}
		if len(rep.Gains) != n {
			t.Fatalf("RX %d reported %d gains, want %d", rep.RX, len(rep.Gains), n)
		}
		reports[rep.RX] = rep
	}
	// RX1 sits under TX8 (index 7): its gain must dominate the others'.
	if g0, g3 := reports[0].Gains[7], reports[3].Gains[7]; g0 <= g3 {
		t.Errorf("gain ordering wrong: %v vs %v", g0, g3)
	}
}

// TestRxFromAddr pins the destination decode the hub uses to pick the
// receiver of an air frame.
func TestRxFromAddr(t *testing.T) {
	if mac.RXIndex(0x0101) != 1 {
		t.Error("rx addr decode")
	}
	if mac.RXIndex(0x0300) != -1 || mac.RXIndex(0) != -1 {
		t.Error("non-rx addr should give -1")
	}
}

// uplinkLossConfig drops 30% of uplink frames (reports and ACKs) on a
// fresh in-memory network.
func uplinkLossConfig() Config {
	return Config{
		Setup:            scenario.Default(),
		Trajectories:     asyncTrajectories(),
		Budget:           1.19,
		Sync:             clock.MethodNLOSVLC,
		Network:          transport.NewLossyNetwork(transport.NewMemNetwork(), 0.3, 11),
		Rounds:           2,
		FramesPerRX:      3,
		MeasurementNoise: 0.02,
		Seed:             5,
		Timeout:          60 * time.Second,
	}
}

// checkARQRecovers: under uplink loss the controller's ARQ must retransmit
// and the dedup window must keep deliveries unique.
func checkARQRecovers(t *testing.T, res *Result) {
	t.Helper()
	totalRetries, totalAcked, totalSent := 0, 0, 0
	for _, r := range res.Rounds {
		totalRetries += r.Retransmits
		totalAcked += r.FramesAckd
		totalSent += r.FramesSent
	}
	if totalRetries == 0 {
		t.Error("30% ACK loss should force retransmissions")
	}
	if totalAcked == 0 {
		t.Error("nothing delivered under moderate loss")
	}
	// Dedup: unique payloads delivered cannot exceed unique frames sent
	// (sent minus retries).
	if res.Delivered > totalSent-totalRetries {
		t.Errorf("delivered %d exceeds unique frames %d — dedup broken",
			res.Delivered, totalSent-totalRetries)
	}
}

func TestAsyncRunARQRecoversFromUplinkLoss(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	res, err := RunContext(context.Background(), uplinkLossConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkARQRecovers(t, res)
}

func TestAsyncRunCountsEveryDelivery(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	// 4 RXs × 64 frames × 5 rounds offers 1280 frames, more than any
	// fixed delivery buffer the count once went through. Every frame
	// crosses the waveform PHY, so the run takes about a minute under the
	// race detector; the timeout leaves room for that.
	res, err := RunContext(context.Background(), Config{
		Setup:            scenario.Default(),
		Trajectories:     asyncTrajectories(),
		Budget:           1.19,
		Sync:             clock.MethodNLOSVLC,
		Rounds:           5,
		FramesPerRX:      64,
		AckTimeout:       500 * time.Millisecond,
		MeasurementNoise: 0.02,
		Seed:             3,
		Timeout:          5 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	acked := 0
	for _, r := range res.Rounds {
		acked += r.FramesAckd
	}
	if res.Delivered <= 1024 {
		t.Errorf("delivered %d payloads, want more than 1024 of the %d offered", res.Delivered, 4*64*5)
	}
	if res.Delivered < acked {
		t.Errorf("delivered %d payloads but %d frames were acknowledged", res.Delivered, acked)
	}
}

// dataFrame is a data frame for RX 0 with sequence number seq, addressed
// to the transmitters in mask.
func dataFrame(seq uint16, mask uint64) frame.Downlink {
	return frame.Downlink{
		PHY: frame.PHY{TXIDMask: mask},
		MAC: frame.MAC{Dst: mac.RXAddr(0), Src: mac.ControllerAddr, Protocol: mac.ProtoData,
			Payload: []byte{byte(seq >> 8), byte(seq), 'x'}},
	}
}

// TestHubFlushPendingDeliversInSeqOrder: frames whose beamspot never fully
// assembled are delivered at a flush in sequence-number order, so the
// receiver's ACKs and the hub's draws do not depend on map iteration.
func TestHubFlushPendingDeliversInSeqOrder(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	const frames = 8
	for rep := 0; rep < 20; rep++ {
		hub, up := scenario3Hub()
		// TX 7 serves RX 0 alone; TX 8 is addressed too but never joins,
		// so every frame stays pending until the flush.
		hub.Configure(7, 0, 0.9, true)
		for k := 0; k < frames; k++ {
			hub.Transmit(7, dataFrame(uint16(100+3*k), frame.MaskOf(7, 8)))
		}
		if sent := up.sent(t); len(sent) != 0 {
			t.Fatalf("rep %d: %d frames acknowledged before the flush", rep, len(sent))
		}
		hub.FlushPending()
		got := acks(t, up.sent(t))
		if len(got) != frames {
			t.Fatalf("rep %d: %d of %d flushed frames acknowledged", rep, len(got), frames)
		}
		for k, ack := range got {
			if want := uint16(100 + 3*k); ack.RX != 0 || ack.Seq != want {
				t.Fatalf("rep %d: ACK %d is RX %d seq %d, want RX 0 seq %d", rep, k, ack.RX, ack.Seq, want)
			}
		}
		if hub.delivered[0] != frames {
			t.Fatalf("rep %d: %d payloads delivered, want %d", rep, hub.delivered[0], frames)
		}
	}
}

// TestHubConcurrentDeliveriesAckEveryFrame has four transmitter goroutines
// each send the same frames to one receiver as single-TX beamspots, so
// every frame reaches it four times and the receiver's state machine is
// stepped from all four goroutines at once. Every delivery is
// acknowledged, and each payload counts once. Run it under -race.
func TestHubConcurrentDeliveriesAckEveryFrame(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	const frames = 32
	// Each of these hears RX 0 at half TX 7's gain; at 1.3 A its frames
	// arrive about as strong as TX 7's at 0.9 A, which always decode.
	txs := []int{1, 6, 8, 13}
	hub, up := scenario3Hub()
	for _, tx := range txs {
		hub.Configure(tx, 0, 1.3, true)
	}
	var wg sync.WaitGroup
	for _, tx := range txs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < frames; k++ {
				hub.Transmit(tx, dataFrame(uint16(k), frame.MaskOf(tx)))
			}
		}()
	}
	wg.Wait()
	perSeq := make([]int, frames)
	for _, ack := range acks(t, up.sent(t)) {
		if ack.RX != 0 || int(ack.Seq) >= frames {
			t.Fatalf("ACK from RX %d for seq %d", ack.RX, ack.Seq)
		}
		perSeq[ack.Seq]++
	}
	for seq, n := range perSeq {
		if n != len(txs) {
			t.Errorf("seq %d acknowledged %d times, want once per delivery (%d)", seq, n, len(txs))
		}
	}
	if hub.delivered[0] != frames {
		t.Errorf("%d payloads delivered, want each of the %d frames once", hub.delivered[0], frames)
	}
}
