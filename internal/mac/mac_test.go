package mac

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"densevlc/internal/alloc"
	"densevlc/internal/channel"
	"densevlc/internal/frame"
	"densevlc/internal/geom"
	"densevlc/internal/led"
	"densevlc/internal/optics"
)

func testParams() (channel.Params, led.Model) {
	m := led.CreeXTE()
	return channel.Params{
		NoiseDensity:       7.02e-23,
		Bandwidth:          1e6,
		Responsivity:       0.40,
		WallPlugEfficiency: m.WallPlugEfficiency,
		DynamicResistance:  m.DynamicResistance(),
	}, m
}

// trueGains computes the physical gain matrix of the paper deployment for
// 2 receivers, used to feed the controller realistic reports.
func trueGains(n int) ([][]float64, int) {
	m := led.CreeXTE()
	room := geom.Room{Width: 3, Depth: 3, Height: 2.8}
	grid := geom.CenteredGrid(room, 6, 6, 0.5, room.Height)
	emitters := make([]optics.Emitter, grid.N())
	for i, p := range grid.Positions() {
		emitters[i] = optics.NewDownwardEmitter(p, m.HalfPowerSemiAngle)
	}
	dets := []optics.Detector{
		optics.NewUpwardDetector(geom.V(0.92, 0.92, 0.8), 1.1e-6, math.Pi/2),
		optics.NewUpwardDetector(geom.V(1.99, 1.69, 0.8), 1.1e-6, math.Pi/2),
	}
	h := channel.BuildMatrix(emitters, dets, nil)
	g := make([][]float64, n)
	for j := 0; j < n; j++ {
		g[j] = append([]float64(nil), h.H[j]...)
	}
	return g, len(dets)
}

func TestReportCodecRoundTrip(t *testing.T) {
	f := func(rx byte, seq uint16, raw []float64) bool {
		gains := make([]float64, 0, len(raw))
		for _, g := range raw {
			if math.IsNaN(g) || math.IsInf(g, 0) {
				continue
			}
			gains = append(gains, math.Abs(g))
		}
		if len(gains) > 200 {
			gains = gains[:200]
		}
		r := Report{RX: int(rx), Seq: seq, Gains: gains}
		got, err := DecodeReport(r.Encode())
		if err != nil {
			return false
		}
		if got.RX != int(rx) || got.Seq != seq || len(got.Gains) != len(gains) {
			return false
		}
		for i := range gains {
			if got.Gains[i] != gains[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReportCodecRejects(t *testing.T) {
	if _, err := DecodeReport([]byte{1}); err == nil {
		t.Error("short report accepted")
	}
	r := Report{RX: 0, Gains: []float64{1}}
	enc := r.Encode()
	if _, err := DecodeReport(enc[:len(enc)-1]); err == nil {
		t.Error("truncated report accepted")
	}
	// NaN gain rejected.
	bad := Report{RX: 0, Gains: []float64{math.NaN()}}
	if _, err := DecodeReport(bad.Encode()); err == nil {
		t.Error("NaN gain accepted")
	}
}

func TestAckPilotCodecs(t *testing.T) {
	a, err := DecodeAck(Ack{RX: 3, Seq: 777}.Encode())
	if err != nil || a.RX != 3 || a.Seq != 777 {
		t.Errorf("ack round trip: %+v err=%v", a, err)
	}
	if _, err := DecodeAck([]byte{1, 2}); err == nil {
		t.Error("short ack accepted")
	}
	p, err := DecodePilot(Pilot{Seq: 9, TXs: []int{17, 3, 254}}.Encode())
	if err != nil || p.Seq != 9 || !slices.Equal(p.TXs, []int{17, 3, 254}) {
		t.Errorf("pilot round trip: %+v err=%v", p, err)
	}
	if _, err := DecodePilot([]byte{1}); err == nil {
		t.Error("short pilot accepted")
	}
}

func TestCheckWireLimits(t *testing.T) {
	if err := CheckWireLimits(64, 255); err != nil {
		t.Errorf("64 TXs × 255 RX slots rejected: %v", err)
	}
	if err := CheckWireLimits(65, 1); !errors.Is(err, ErrWireLimit) {
		t.Errorf("65 TXs past the 64-bit TX-ID mask: err = %v, want ErrWireLimit", err)
	}
	// Slot 255 would encode as the allocation's 0xFF illumination-only
	// marker, so 255 slots (indices 0–254) is the limit.
	for _, m := range []int{256, 257} {
		if CheckWireLimits(36, m) == nil {
			t.Errorf("%d RX slots accepted past the one-byte RX index", m)
		}
	}
}

func TestAllocationCodecRoundTrip(t *testing.T) {
	a := Allocation{Seq: 5, Commands: []TXCommand{
		{TX: 7, RX: 0, SwingMilliAmps: 900, Leader: true},
		{TX: 9, RX: 1, SwingMilliAmps: 450},
		{TX: 14, RX: -1},
		{TX: 20, RX: 254, SwingMilliAmps: 900},
	}}
	got, err := DecodeAllocation(a.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 5 || len(got.Commands) != 4 {
		t.Fatalf("allocation = %+v", got)
	}
	if got.Commands[0] != a.Commands[0] || got.Commands[2].RX != -1 || got.Commands[3] != a.Commands[3] {
		t.Errorf("commands = %+v", got.Commands)
	}
	if _, err := DecodeAllocation([]byte{0}); err == nil {
		t.Error("short allocation accepted")
	}
	if _, err := DecodeAllocation(a.Encode()[:7]); err == nil {
		t.Error("truncated allocation accepted")
	}
}

func TestControllerFullCycle(t *testing.T) {
	params, ledModel := testParams()
	gains, m := trueGains(36)
	c := NewController(36, m, alloc.Heuristic{Kappa: 1.3}, 0.6, params, ledModel)

	// No reports yet.
	if c.HaveFreshReports() {
		t.Fatal("fresh reports before any arrived")
	}

	// Feed reports from both receivers.
	for rx := 0; rx < m; rx++ {
		col := make([]float64, 36)
		for j := 0; j < 36; j++ {
			col[j] = gains[j][rx]
		}
		rep := Report{RX: rx, Gains: col}
		if err := c.HandleUplink(frame.MAC{Protocol: ProtoReport, Payload: rep.Encode()}); err != nil {
			t.Fatal(err)
		}
	}
	if !c.HaveFreshReports() {
		t.Fatal("reports not registered")
	}

	plan, err := c.Reallocate()
	if err != nil {
		t.Fatal(err)
	}
	if c.HaveFreshReports() {
		t.Error("freshness should clear after reallocation")
	}

	// Every receiver gets a beamspot and a leader within it.
	for rx := 0; rx < m; rx++ {
		if len(plan.ServedBy[rx]) == 0 {
			t.Errorf("RX %d unserved", rx)
			continue
		}
		if plan.Leader[rx] < 0 {
			t.Errorf("RX %d has no leader", rx)
		}
		found := false
		for _, tx := range plan.ServedBy[rx] {
			if tx == plan.Leader[rx] {
				found = true
			}
		}
		if !found {
			t.Errorf("RX %d leader %d not in beamspot %v", rx, plan.Leader[rx], plan.ServedBy[rx])
		}
	}

	// Budget respected.
	if p := plan.Swings.CommPower(params.DynamicResistance); p > 0.6+1e-9 {
		t.Errorf("plan power %v exceeds budget", p)
	}

	// Allocation frame round-trips and reconfigures TX nodes.
	af, err := c.AllocationFrame(plan)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := af.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	decoded, _, err := frame.DecodeDownlink(wire)
	if err != nil {
		t.Fatal(err)
	}
	servingTX := plan.ServedBy[0][0]
	node := NewTXNode(servingTX)
	action, err := node.HandleDownlink(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if action != TXReconfigure || !node.Cmd.Communicating() {
		t.Errorf("TX %d not reconfigured: action=%v cmd=%+v", servingTX, action, node.Cmd)
	}
	if math.Abs((node.Cmd.Swing() - plan.Swings[servingTX][0]).A()) > 1e-3 {
		t.Errorf("swing %v vs plan %v", node.Cmd.Swing(), plan.Swings[servingTX][0])
	}

	// Data frame targets exactly the beamspot.
	df, seq, err := c.DataFrame(plan, 0, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range plan.ServedBy[0] {
		if !df.PHY.Targets(tx) {
			t.Errorf("beamspot TX %d not addressed", tx)
		}
	}
	if df.PHY.Targets(35) && !contains(plan.ServedBy[0], 35) {
		t.Error("unrelated TX addressed")
	}

	// Receiver handles the data frame and produces an ack the controller
	// accepts.
	rxNode := NewRXNode(0, 36)
	payload, ackFrame, ok := rxNode.HandleData(df.MAC)
	if !ok || !bytes.Equal(payload, []byte("hello")) {
		t.Fatalf("rx decode failed: ok=%v payload=%q", ok, payload)
	}
	if err := c.HandleUplink(ackFrame); err != nil {
		t.Fatal(err)
	}
	if ack, err := DecodeAck(ackFrame.Payload); err != nil || ack.Seq != seq {
		t.Errorf("ack = %+v, %v; want seq %d", ack, err, seq)
	}
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func TestControllerRejectsBadUplink(t *testing.T) {
	params, ledModel := testParams()
	c := NewController(4, 2, alloc.Heuristic{}, 0.1, params, ledModel)
	if err := c.HandleUplink(frame.MAC{Protocol: ProtoData}); err == nil {
		t.Error("data frame accepted as uplink")
	}
	rep := Report{RX: 9, Gains: make([]float64, 4)}
	if err := c.HandleUplink(frame.MAC{Protocol: ProtoReport, Payload: rep.Encode()}); err == nil {
		t.Error("report from unknown RX accepted")
	}
	rep = Report{RX: 0, Gains: make([]float64, 3)}
	if err := c.HandleUplink(frame.MAC{Protocol: ProtoReport, Payload: rep.Encode()}); err == nil {
		t.Error("report with wrong gain count accepted")
	}
	if err := c.HandleUplink(frame.MAC{Protocol: ProtoReport, Payload: []byte{1}}); err == nil {
		t.Error("garbage report accepted")
	}
}

func TestControllerDataFrameErrors(t *testing.T) {
	params, ledModel := testParams()
	c := NewController(4, 2, alloc.Heuristic{}, 0.1, params, ledModel)
	plan := Plan{Swings: channel.NewSwings(4, 2), ServedBy: make([][]int, 2), Leader: []int{-1, -1}}
	if _, _, err := c.DataFrame(plan, 5, nil); err == nil {
		t.Error("unknown RX accepted")
	}
	if _, _, err := c.DataFrame(plan, 0, nil); err == nil {
		t.Error("empty beamspot accepted")
	}
}

// TestPilotScheduleFrame pins the epoch's pilot schedule: one frame
// addressed to every TX, one slot per TX in index order from the
// controller's sequence number, every scheduled TX entering its slot, an
// unscheduled TX ignoring the frame, and malformed schedules refused.
func TestPilotScheduleFrame(t *testing.T) {
	params, ledModel := testParams()
	c := NewController(36, 2, alloc.Heuristic{}, 0.1, params, ledModel)
	pf, err := c.PilotFrame()
	if err != nil {
		t.Fatal(err)
	}
	if pf.MAC.Protocol != ProtoPilot || pf.MAC.Src != ControllerAddr || pf.PHY.TXIDMask != allTXMask(36) {
		t.Errorf("schedule header: protocol 0x%04x src 0x%04x mask %x", pf.MAC.Protocol, pf.MAC.Src, pf.PHY.TXIDMask)
	}
	p, err := DecodePilot(pf.MAC.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seq != 0 || len(p.TXs) != 36 {
		t.Fatalf("schedule = %+v", p)
	}
	for k, tx := range p.TXs {
		if tx != k {
			t.Errorf("slot %d belongs to TX %d", k, tx)
		}
	}
	// Slot k carries sequence number seq+k, so the next frame starts N on.
	next, err := c.PilotFrame()
	if err != nil {
		t.Fatal(err)
	}
	if np, err := DecodePilot(next.MAC.Payload); err != nil || np.Seq != 36 {
		t.Errorf("next schedule = %+v, %v; want seq 36", np, err)
	}

	wire, err := pf.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	decoded, _, err := frame.DecodeDownlink(wire)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 36; j++ {
		if action, err := NewTXNode(j).HandleDownlink(decoded); err != nil || action != TXPilotSlot {
			t.Errorf("TX %d: action = %v err = %v", j, action, err)
		}
	}

	partial := pf
	partial.MAC.Payload = Pilot{TXs: []int{1, 2}}.Encode()
	if action, err := NewTXNode(7).HandleDownlink(partial); err != nil || action != TXIgnore {
		t.Errorf("unscheduled TX: action = %v err = %v", action, err)
	}
	if action, err := NewTXNode(2).HandleDownlink(partial); err != nil || action != TXPilotSlot {
		t.Errorf("scheduled TX: action = %v err = %v", action, err)
	}

	good := pf.MAC.Payload
	for name, payload := range map[string][]byte{
		"truncated header": good[:2],
		"truncated slots":  good[:len(good)-1],
		"over-long":        append(slices.Clone(good), 0),
	} {
		bad := pf
		bad.MAC.Payload = payload
		if _, err := NewTXNode(0).HandleDownlink(bad); err == nil {
			t.Errorf("%s schedule accepted", name)
		}
	}
}

// TestFrameBuildersRefuseUncountableFleet pins the one-byte TX count of the
// allocation and the pilot schedule: 256 TXs would wrap it to 0, so both
// builders refuse them with ErrWireLimit, and 255 still fit.
func TestFrameBuildersRefuseUncountableFleet(t *testing.T) {
	params, ledModel := testParams()
	c := NewController(256, 1, alloc.Heuristic{}, 0.1, params, ledModel)
	if _, err := c.PilotFrame(); !errors.Is(err, ErrWireLimit) {
		t.Errorf("PilotFrame with 256 TXs: err = %v, want ErrWireLimit", err)
	}
	plan := Plan{Swings: channel.NewSwings(256, 1), ServedBy: make([][]int, 1), Leader: []int{-1}}
	if _, err := c.AllocationFrame(plan); !errors.Is(err, ErrWireLimit) {
		t.Errorf("AllocationFrame with 256 TXs: err = %v, want ErrWireLimit", err)
	}

	c = NewController(255, 1, alloc.Heuristic{}, 0.1, params, ledModel)
	pf, err := c.PilotFrame()
	if err != nil {
		t.Fatal(err)
	}
	if p, err := DecodePilot(pf.MAC.Payload); err != nil || len(p.TXs) != 255 || p.TXs[254] != 254 {
		t.Errorf("255-TX schedule: %d slots, err %v", len(p.TXs), err)
	}
	plan = Plan{Swings: channel.NewSwings(255, 1), ServedBy: make([][]int, 1), Leader: []int{-1}}
	af, err := c.AllocationFrame(plan)
	if err != nil {
		t.Fatal(err)
	}
	if a, err := DecodeAllocation(af.MAC.Payload); err != nil || len(a.Commands) != 255 {
		t.Errorf("255-TX allocation: %d commands, err %v", len(a.Commands), err)
	}
}

func TestTXNodeIgnoresDataWhenIlluminationOnly(t *testing.T) {
	node := NewTXNode(3)
	d := frame.Downlink{
		PHY: frame.PHY{TXIDMask: frame.MaskOf(3)},
		MAC: frame.MAC{Protocol: ProtoData, Payload: []byte{0, 0}},
	}
	action, err := node.HandleDownlink(d)
	if err != nil || action != TXIgnore {
		t.Errorf("illumination-only TX should ignore data: %v", action)
	}
	node.Cmd = TXCommand{TX: 3, RX: 1, SwingMilliAmps: 900}
	action, err = node.HandleDownlink(d)
	if err != nil || action != TXTransmit {
		t.Errorf("communicating TX should transmit: %v", action)
	}
}

func TestRXNodeMeasurementRound(t *testing.T) {
	r := NewRXNode(1, 4)
	if r.RoundComplete() {
		t.Fatal("empty round complete")
	}
	for tx := 0; tx < 4; tx++ {
		if err := r.RecordMeasurement(tx, float64(tx)*1e-7); err != nil {
			t.Fatal(err)
		}
	}
	if !r.RoundComplete() {
		t.Fatal("round should be complete")
	}
	rep := r.BuildReport()
	if rep.Protocol != ProtoReport || rep.Dst != ControllerAddr {
		t.Errorf("report frame = %+v", rep)
	}
	decoded, err := DecodeReport(rep.Payload)
	if err != nil || decoded.RX != 1 || decoded.Gains[3] != 3e-7 {
		t.Errorf("decoded = %+v err=%v", decoded, err)
	}
	if r.RoundComplete() {
		t.Error("round should reset after report")
	}
	// Negative gain clamps, unknown TX errors.
	if err := r.RecordMeasurement(0, -1); err != nil {
		t.Error(err)
	}
	if err := r.RecordMeasurement(9, 1); err == nil {
		t.Error("unknown TX accepted")
	}
}

func TestRXNodeHandleDataFiltering(t *testing.T) {
	r := NewRXNode(2, 4)
	// Addressed to another RX.
	if _, _, ok := r.HandleData(frame.MAC{Protocol: ProtoData, Dst: RXAddr(1), Payload: []byte{0, 1, 2}}); ok {
		t.Error("frame for RX1 accepted by RX2")
	}
	// Too short for the sequence header.
	if _, _, ok := r.HandleData(frame.MAC{Protocol: ProtoData, Dst: RXAddr(2), Payload: []byte{0}}); ok {
		t.Error("short frame accepted")
	}
	// Broadcast accepted.
	if _, _, ok := r.HandleData(frame.MAC{Protocol: ProtoData, Dst: BroadcastAddr, Payload: []byte{0, 9, 1}}); !ok {
		t.Error("broadcast rejected")
	}
	// Wrong protocol.
	if _, _, ok := r.HandleData(frame.MAC{Protocol: ProtoAck, Dst: RXAddr(2), Payload: []byte{0, 1, 2}}); ok {
		t.Error("non-data frame accepted")
	}
}

func TestAddressHelpers(t *testing.T) {
	if RXAddr(0) == ControllerAddr || RXAddr(254) == BroadcastAddr {
		t.Error("address spaces overlap")
	}
	for i := 0; i < 255; i++ {
		if got := RXIndex(RXAddr(i)); got != i {
			t.Errorf("RXIndex(RXAddr(%d)) = %d", i, got)
		}
	}
	for _, addr := range []uint16{ControllerAddr, 0x00FF, RXAddr(255), 0x0200, 0x0300, BroadcastAddr} {
		if got := RXIndex(addr); got != -1 {
			t.Errorf("RXIndex(0x%04x) = %d, want -1", addr, got)
		}
	}
}
