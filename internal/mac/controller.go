package mac

import (
	"context"
	"fmt"
	"math"

	"densevlc/internal/alloc"
	"densevlc/internal/channel"
	"densevlc/internal/cluster"
	"densevlc/internal/frame"
	"densevlc/internal/led"
	"densevlc/internal/units"
)

// Controller hosts DenseVLC's decision logic (Sec. 3.2): it ingests channel
// reports, recomputes the swing allocation with the configured policy, and
// produces the allocation commands and data frames the transmitters act on.
// Every decision solves through one cooperation-cluster workspace, so a
// receiver no transmitter hears costs no budget and fails no solve.
//
// The controller is a pure state machine: feed it uplink messages with
// HandleUplink, ask for decisions with Reallocate, and build wire frames
// with PilotFrame / AllocationFrame / DataFrame. Time and transport live
// outside.
type Controller struct {
	N, M   int
	Budget units.Watts
	Params channel.Params
	LED    led.Model

	// Trigger selects event-driven re-allocation: fresh reports whose gain
	// columns moved less than the threshold since the last solve keep the
	// cached plan instead of forcing a re-solve. The zero value disables
	// the trigger and every epoch with fresh reports re-solves (the legacy
	// fixed-epoch behaviour).
	Trigger Trigger

	gains   [][]float64 // gains[tx][rx], latest reports
	fresh   []bool      // fresh[rx]: a report arrived since last Reallocate
	seq     uint16
	current Plan

	// Event-driven trigger state: the per-RX dirty scratch, the dirty set
	// the in-flight solve filters clusters with, and the count of
	// consecutive trigger-skipped epochs. The basis of the delta check is
	// env.H, the matrix the current plan was solved from.
	rxDirty     []bool
	epochDirty  []bool
	staleEpochs int

	// Link-health tracking (fault detection, Sec. 6 resilience).
	txEverSeen   []bool      // TX reported positive gain at least once
	txZeroEpochs []int       // consecutive epochs with zero gain everywhere
	txState      []LinkState // current classification

	// solver is the cooperation-cluster workspace every decision solves
	// through, with the policy as its Inner. NewController gives it the
	// all-covering formation, which reproduces the global solve bit for bit;
	// EnableSharding swaps in a tighter one.
	solver *cluster.Workspace
	// env is the persistent input of every solve. Its channel matrix is
	// refreshed in place, so the steady-state epoch loop allocates nothing
	// on the solve path, and between epochs it holds the gains the current
	// plan was solved from. It is nil before the first solve and after a
	// failed one.
	env alloc.Env
}

// LinkState classifies the controller's view of one transmitter's link.
type LinkState int

// deadAfterEpochs is the number of consecutive all-zero-gain control epochs
// after which a transmitter that once carried signal is declared dead: one
// epoch marks it stale, the next kills it. Exclusion from the allocation is
// immediate either way — a zero-gain transmitter earns no swing — so
// recovery completes within one control epoch; the state machine exists so
// operators and tests can distinguish a blip from a hard failure, and so
// dead rows stay excluded even if later reports go missing.
const deadAfterEpochs = 2

// The detection states. Transitions happen at Reallocate time, the
// controller's epoch boundary, from the epoch's pilot reports.
const (
	// LinkHealthy: the transmitter carried positive gain to some receiver
	// in the latest epoch (or has not yet been measured).
	LinkHealthy LinkState = iota
	// LinkStale: a previously-seen transmitter reported zero gain to every
	// receiver this epoch — a candidate failure awaiting confirmation.
	LinkStale
	// LinkDead: zero gain everywhere for deadAfterEpochs consecutive
	// epochs. The controller zeroes the row until fresh evidence returns.
	LinkDead
)

// String implements fmt.Stringer.
func (s LinkState) String() string {
	switch s {
	case LinkHealthy:
		return "healthy"
	case LinkStale:
		return "stale"
	case LinkDead:
		return "dead"
	default:
		return fmt.Sprintf("LinkState(%d)", int(s))
	}
}

// Plan is the controller's current operating decision.
type Plan struct {
	// Swings is the commanded swing matrix.
	Swings channel.Swings
	// ServedBy[rx] lists the transmitters of rx's beamspot.
	ServedBy [][]int
	// Leader[rx] is the beamspot's leading TX (pilot emitter), or -1.
	Leader []int
	// Seq identifies the allocation epoch.
	Seq uint16
}

// NewController builds a controller for n transmitters and m receivers.
func NewController(n, m int, policy alloc.Policy, budget units.Watts, params channel.Params, ledModel led.Model) *Controller {
	g := make([][]float64, n)
	for j := range g {
		g[j] = make([]float64, m)
	}
	return &Controller{
		N: n, M: m,
		Budget: budget,
		Params: params, LED: ledModel,
		solver:       cluster.NewWorkspace(cluster.Spec{}, policy, 1),
		gains:        g,
		fresh:        make([]bool, m),
		txEverSeen:   make([]bool, n),
		txZeroEpochs: make([]int, n),
		txState:      make([]LinkState, n),
		rxDirty:      make([]bool, m),
	}
}

// Trigger is the controller's event-driven re-allocation policy. With a
// positive RelDelta, an epoch's fresh reports only force a re-solve when
// some receiver's gain column moved by more than RelDelta (relative to the
// column's peak gain at the last solve); quieter epochs return the cached
// plan after an O(N·fresh) dirty check. The basis of that check is the
// channel matrix the last successful solve read. MaxStaleEpochs bounds how
// many consecutive epochs the trigger may skip before a full re-solve is
// forced regardless of deltas (0 = unbounded). Health transitions and a
// failed solve always force a full re-solve.
type Trigger struct {
	// RelDelta is the relative per-column gain change above which a
	// receiver is dirty. Zero disables the trigger; sim.Drive refuses a
	// negative or non-finite value.
	RelDelta float64
	// MaxStaleEpochs caps consecutive trigger-skipped epochs (0 = no cap);
	// sim.Drive refuses a negative value.
	MaxStaleEpochs int
}

func (tr Trigger) enabled() bool { return tr.RelDelta > 0 }

// HandleUplink ingests one uplink MAC frame. Reports update the gain
// columns; acks are validated and otherwise ignored, since delivery
// bookkeeping belongs to the caller's ARQ.
func (c *Controller) HandleUplink(m frame.MAC) error {
	switch m.Protocol {
	case ProtoReport:
		rep, err := DecodeReport(m.Payload)
		if err != nil {
			return err
		}
		if rep.RX < 0 || rep.RX >= c.M {
			return fmt.Errorf("mac: report from unknown RX %d", rep.RX)
		}
		if len(rep.Gains) != c.N {
			return fmt.Errorf("mac: report carries %d gains, want %d", len(rep.Gains), c.N)
		}
		for j, g := range rep.Gains {
			c.gains[j][rep.RX] = g
		}
		c.fresh[rep.RX] = true
		return nil
	case ProtoAck:
		_, err := DecodeAck(m.Payload)
		return err
	default:
		return fmt.Errorf("mac: unexpected uplink protocol 0x%04x", m.Protocol)
	}
}

// HaveFreshReports reports whether every receiver has reported since the
// last reallocation.
func (c *Controller) HaveFreshReports() bool {
	for _, f := range c.fresh {
		if !f {
			return false
		}
	}
	return true
}

// refreshEnv updates the controller's persistent environment in place —
// allocation-free once the matrix exists — and returns it. A non-nil
// rxDirty restricts the copy to the dirty receivers' columns; the clean
// columns keep the gains of the last solve, which is exactly what the
// cached per-cluster sub-plans were computed from and what the trigger
// measures deltas against. Rows of transmitters the health tracker has
// declared dead are zeroed, so a stale (pre-failure) report can never earn
// a dead transmitter swing. Callers must not retain the environment across
// epochs.
func (c *Controller) refreshEnv(rxDirty []bool) *alloc.Env {
	if c.env.H == nil || c.env.H.N != c.N || c.env.H.M != c.M {
		c.env.H = channel.NewMatrix(c.N, c.M)
		rxDirty = nil // fresh matrix: every column needs its first fill
	}
	c.fillEnv(rxDirty)
	return &c.env
}

// fillEnv copies the health-masked gain matrix and device models into the
// persistent environment, whose matrix must already be N×M. A non-nil
// rxDirty copies only the dirty receivers' columns (dead transmitter rows
// are zeroed in full either way — a stale report must not revive a dead TX).
//
//lint:hotpath
func (c *Controller) fillEnv(rxDirty []bool) {
	env := &c.env
	env.Params, env.LED = c.Params, c.LED
	for j := 0; j < c.N; j++ {
		row := env.H.H[j]
		if c.txState[j] == LinkDead {
			for i := range row {
				row[i] = 0
			}
			continue
		}
		if rxDirty == nil {
			copy(row, c.gains[j])
			continue
		}
		g := c.gains[j]
		for i, d := range rxDirty {
			if d {
				row[i] = g[i]
			}
		}
	}
}

// EnableSharding replaces the controller's all-covering formation with sp
// and its serial per-cluster loop with a fan-out over workers (0 = all
// cores). Clusters are re-formed from the health-masked gains each epoch,
// each is solved with the controller's policy on its budget share, and only
// dirty clusters — those with a fresh report from a member receiver, or any
// cluster after a membership change — are re-solved. The stitched plan is
// identical for every workers value.
func (c *Controller) EnableSharding(sp cluster.Spec, workers int) {
	c.solver.Spec, c.solver.Workers = sp, workers
}

// Clustering exposes the shard map of the last Reallocate that reached the
// solver; it holds no clusters before the first one. Under the default all-covering
// formation it is one cluster owning every transmitter in play, plus one
// TX-less cluster per receiver no transmitter hears.
func (c *Controller) Clustering() *cluster.Clustering {
	return c.solver.Clustering()
}

// clusterDirty reports whether cluster ci must be re-solved this epoch: true
// when any member receiver is in the epoch's dirty set — the fresh reports
// by default, the trigger-filtered subset when the trigger is active. Gains
// can only change through reports, so a cluster with no dirty member kept
// the exact sub-matrix it was last solved on (membership changes are
// handled upstream by the workspace, which re-solves everything).
func (c *Controller) clusterDirty(ci int) bool {
	dirtyRX := c.fresh
	if c.epochDirty != nil {
		dirtyRX = c.epochDirty
	}
	for _, rx := range c.solver.Clustering().Clusters[ci].RXs {
		if dirtyRX[rx] {
			return true
		}
	}
	return false
}

// updateHealth advances the link-state machine from the epoch's reports and
// reports whether any transmitter changed state. It only runs when at least
// one receiver reported this epoch — no reports means no evidence, and a
// transmitter must not die of the controller's own deafness.
func (c *Controller) updateHealth() (changed bool) {
	anyFresh := false
	for _, f := range c.fresh {
		if f {
			anyFresh = true
			break
		}
	}
	if !anyFresh {
		return false
	}
	for j := 0; j < c.N; j++ {
		was := c.txState[j]
		maxG := 0.0
		for i := 0; i < c.M; i++ {
			if c.gains[j][i] > maxG {
				maxG = c.gains[j][i]
			}
		}
		if maxG > 0 {
			c.txEverSeen[j] = true
			c.txZeroEpochs[j] = 0
			c.txState[j] = LinkHealthy
		} else if c.txEverSeen[j] {
			c.txZeroEpochs[j]++
			if c.txZeroEpochs[j] >= deadAfterEpochs {
				c.txState[j] = LinkDead
			} else {
				c.txState[j] = LinkStale
			}
		}
		if c.txState[j] != was {
			changed = true
		}
	}
	return changed
}

// TXState returns the health classification of transmitter tx.
func (c *Controller) TXState(tx int) LinkState {
	if tx < 0 || tx >= c.N {
		return LinkHealthy
	}
	return c.txState[tx]
}

// DeadTXs returns the transmitters currently classified dead, in index
// order.
func (c *Controller) DeadTXs() []int {
	var out []int
	for j, s := range c.txState {
		if s == LinkDead {
			out = append(out, j)
		}
	}
	return out
}

// Reallocate runs the decision logic on the latest reports and returns the
// new plan. It clears the freshness flags so the next round's reports can
// be awaited. Link health advances first, so this epoch's failures are
// excluded from this epoch's plan — detection-to-recovery is one epoch.
//
// On a quiet epoch — no fresh reports and no health transition — the cached
// plan is returned without touching the solver: the inputs of the last
// solve are untouched, so the decision would reproduce itself. With the
// Trigger enabled, epochs whose fresh reports all moved less than the
// threshold are likewise answered from the cache after an O(N·fresh) dirty
// check. The plan's swing matrix aliases the solver's stitch buffer: it is
// valid until the next Reallocate that solves.
func (c *Controller) Reallocate() (Plan, error) {
	//lint:ignore ctxflow context-free convenience wrapper over ReallocateContext, which accepts the caller's context
	return c.ReallocateContext(context.Background())
}

// ReallocateContext is Reallocate under the caller's context: cancellation
// stops the per-cluster fan-out between cluster solves.
func (c *Controller) ReallocateContext(ctx context.Context) (Plan, error) {
	healthChanged := c.updateHealth()
	anyFresh := false
	for _, f := range c.fresh {
		if f {
			anyFresh = true
			break
		}
	}

	// Quiet epoch: nothing the solver reads has changed, so the cached
	// plan IS this epoch's decision. Seq stays put — transmitters apply
	// duplicate allocation commands idempotently — and the staleness
	// counter does not advance: no evidence arrived, so the plan is not
	// growing stale, merely unchallenged.
	if c.current.Swings != nil && !anyFresh && !healthChanged {
		return c.current, nil
	}

	// Event-driven trigger: measure each fresh receiver's gain column
	// against the basis of the last solve and keep the cached plan when
	// every delta is below the threshold. Health transitions, the staleness
	// bound and a missing basis (no successful solve yet, or a failed last
	// one) force the full path.
	var rxDirty []bool
	if c.Trigger.enabled() && !healthChanged && c.env.H != nil {
		rxDirty = c.refreshRXDirty()
		anyDirty := false
		for _, d := range rxDirty {
			if d {
				anyDirty = true
				break
			}
		}
		if !anyDirty {
			if c.Trigger.MaxStaleEpochs <= 0 || c.staleEpochs+1 < c.Trigger.MaxStaleEpochs {
				c.staleEpochs++
				for i := range c.fresh {
					c.fresh[i] = false
				}
				return c.current, nil
			}
			rxDirty = nil // staleness bound hit: force a full re-solve
		}
	}

	c.epochDirty = rxDirty
	swings, err := c.solver.SolveDirtyContext(ctx, c.refreshEnv(rxDirty), c.Budget, c.clusterDirty)
	c.epochDirty = nil
	if err != nil {
		// refreshEnv already wrote this epoch's gains, so the matrix no
		// longer holds the basis of the current plan: drop it, and the next
		// decision takes the full path.
		c.env.H = nil
		return Plan{}, err
	}
	c.staleEpochs = 0
	return c.adopt(swings), nil
}

// adopt derives beamspots and leaders from a solved swing matrix, installs
// the result as the current plan under a fresh sequence number, and clears
// the report freshness flags.
func (c *Controller) adopt(swings channel.Swings) Plan {
	plan := Plan{
		Swings:   swings,
		ServedBy: make([][]int, c.M),
		Leader:   make([]int, c.M),
		Seq:      c.seq,
	}
	c.seq++
	for i := 0; i < c.M; i++ {
		plan.Leader[i] = -1
		bestGain := 0.0
		for j := 0; j < c.N; j++ {
			if swings[j][i] <= 0 {
				continue
			}
			plan.ServedBy[i] = append(plan.ServedBy[i], j)
			// The leading TX is the beamspot member with the best channel:
			// its reflected pilot reaches the rest of the (nearby) spot.
			if g := c.gains[j][i]; g > bestGain {
				bestGain = g
				plan.Leader[i] = j
			}
		}
	}
	for i := range c.fresh {
		c.fresh[i] = false
	}
	c.current = plan
	return plan
}

// refreshRXDirty recomputes the per-receiver dirty flags: a fresh receiver
// is dirty when some transmitter's gain to it moved by more than
// Trigger.RelDelta of its column's peak in env.H, the basis of the last
// solve (an all-zero basis column treats any positive gain as dirty).
// Receivers without a fresh report cannot have changed and stay clean.
//
//lint:hotpath
func (c *Controller) refreshRXDirty() []bool {
	basis := c.env.H.H
	for i := 0; i < c.M; i++ {
		c.rxDirty[i] = false
		if !c.fresh[i] {
			continue
		}
		peak, maxDelta := 0.0, 0.0
		for j := 0; j < c.N; j++ {
			base := basis[j][i]
			if base > peak {
				peak = base
			}
			delta := c.gains[j][i] - base
			if delta < 0 {
				delta = -delta
			}
			if delta > maxDelta {
				maxDelta = delta
			}
		}
		c.rxDirty[i] = maxDelta > c.Trigger.RelDelta*peak
	}
	return c.rxDirty
}

// Plan returns the current plan.
func (c *Controller) Plan() Plan { return c.current }

// AllocationFrame builds the downlink frame carrying the plan to all TXs.
func (c *Controller) AllocationFrame(plan Plan) (frame.Downlink, error) {
	if err := checkTXCount(c.N); err != nil {
		return frame.Downlink{}, err
	}
	cmds := make([]TXCommand, 0, c.N)
	for j := 0; j < c.N; j++ {
		cmd := TXCommand{TX: j, RX: -1}
		for i := 0; i < c.M; i++ {
			if plan.Swings[j][i] > 0 {
				cmd.RX = i
				cmd.SwingMilliAmps = uint16(math.Round(units.AmperesToMilliamperes(plan.Swings[j][i]).MA()))
				cmd.Leader = plan.Leader[i] == j
				break
			}
		}
		cmds = append(cmds, cmd)
	}
	a := Allocation{Seq: plan.Seq, Commands: cmds}
	return frame.Downlink{
		Eth: defaultEth(),
		PHY: frame.PHY{TXIDMask: allTXMask(c.N)},
		MAC: frame.MAC{Dst: BroadcastAddr, Src: ControllerAddr, Protocol: ProtoAllocation, Payload: a.Encode()},
	}, nil
}

// DataFrame builds a downlink data frame for receiver rx, addressed to the
// transmitters of its beamspot. The returned sequence number identifies the
// frame for acknowledgement tracking and deduplication.
func (c *Controller) DataFrame(plan Plan, rx int, payload []byte) (frame.Downlink, uint16, error) {
	seq := c.seq
	d, err := c.DataFrameWithSeq(plan, rx, payload, seq)
	if err != nil {
		return frame.Downlink{}, 0, err
	}
	c.seq++
	return d, seq, nil
}

// DataFrameWithSeq builds a data frame under an explicit sequence number —
// the retransmission path: a resent frame must carry its original sequence
// number so the receiver's dedup window recognises duplicates even when the
// first copy was merely delayed.
func (c *Controller) DataFrameWithSeq(plan Plan, rx int, payload []byte, seq uint16) (frame.Downlink, error) {
	if rx < 0 || rx >= c.M {
		return frame.Downlink{}, fmt.Errorf("mac: unknown RX %d", rx)
	}
	if len(plan.ServedBy[rx]) == 0 {
		return frame.Downlink{}, fmt.Errorf("mac: RX %d has no beamspot", rx)
	}
	d := frame.Downlink{
		Eth: defaultEth(),
		PHY: frame.PHY{TXIDMask: frame.MaskOf(plan.ServedBy[rx]...)},
		MAC: frame.MAC{Dst: RXAddr(rx), Src: ControllerAddr, Protocol: ProtoData},
	}
	// The prototype tracks sequence numbers inside the payload; we prepend
	// a 2-byte sequence header, which the RX strips.
	hdr := []byte{byte(seq >> 8), byte(seq)}
	d.MAC.Payload = append(hdr, payload...)
	return d, nil
}

// PilotFrame builds the epoch's pilot schedule: one slot per transmitter in
// index order, a dark one included, so the receivers measure each channel in
// isolation (the time-division scheme of Sec. 3.2). Slot k carries sequence
// number seq+k, so the schedule consumes N sequence numbers.
func (c *Controller) PilotFrame() (frame.Downlink, error) {
	if err := checkTXCount(c.N); err != nil {
		return frame.Downlink{}, err
	}
	p := Pilot{Seq: c.seq, TXs: make([]int, c.N)}
	for j := range p.TXs {
		p.TXs[j] = j
	}
	c.seq += uint16(c.N)
	return frame.Downlink{
		Eth: defaultEth(),
		PHY: frame.PHY{TXIDMask: allTXMask(c.N)},
		MAC: frame.MAC{Dst: BroadcastAddr, Src: ControllerAddr, Protocol: ProtoPilot, Payload: p.Encode()},
	}, nil
}

func defaultEth() frame.Eth {
	return frame.Eth{
		Dst:       [6]byte{0x01, 0x00, 0x5E, 0x00, 0x00, 0x01}, // multicast group
		Src:       [6]byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x00}, // controller
		EtherType: frame.EtherTypeVLC,
	}
}

func allTXMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (1 << uint(n)) - 1
}
