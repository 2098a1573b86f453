package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"densevlc/internal/channel"
	"densevlc/internal/geom"
	"densevlc/internal/mobility"
	"densevlc/internal/scenario"
	"densevlc/internal/stats"
	"densevlc/internal/units"
)

// EventKind classifies a population event.
type EventKind uint8

const (
	// EventArrive is an admitted arrival occupying a slot.
	EventArrive EventKind = iota
	// EventDepart is a session ending, freeing its slot.
	EventDepart
	// EventReject is an arrival turned away by admission control — no free
	// slot, or the capacity gate.
	EventReject
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventArrive:
		return "arrive"
	case EventDepart:
		return "depart"
	case EventReject:
		return "reject"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one entry of the engine's append-only churn trace.
type Event struct {
	// Epoch and Time locate the event at the round boundary it happened on.
	Epoch int
	Time  units.Seconds
	// Kind says what happened; User is the monotone session id; Slot the
	// receiver slot involved (-1 for rejections, which occupy none).
	Kind EventKind
	User int
	Slot int
	// Population is the live user count after the event.
	Population int
}

// user is one slot tenancy.
type user struct {
	id       int
	departAt units.Seconds
	traj     *mobility.RandomWaypoint
	traffic  *traffic
}

// StepStats summarises one engine epoch.
type StepStats struct {
	Epoch int
	Time  units.Seconds
	// Arrivals admitted, Rejections turned away, Departures completed this
	// epoch; Population is the live count after all of them.
	Arrivals, Rejections, Departures int
	Population                       int
	// FramesDemanded sums the live users' traffic demand for the epoch.
	FramesDemanded int
}

// Engine evolves a churning population over a fixed fleet of receiver
// slots. It is single-goroutine by design: Step, Position and Demand must
// all be called from one goroutine (the round loop), which is what makes
// the trace byte-reproducible. Arrivals draw Poisson counts (Knuth's
// product method), sessions draw exponential dwell times, and every
// admitted user gets its own split RNG streams for motion and traffic, so
// one user's lifetime never perturbs another's randomness.
type Engine struct {
	spec   Spec
	budget units.Watts
	rng    *rand.Rand

	// Motion bounds: the room shrunk by a wall margin, users on the RX
	// plane (xy; the z is applied by scenario.Detectors downstream).
	xMin, yMin, xMax, yMax units.Meters

	slots  []*user
	parked []geom.Vec // where a free slot's dark photodiode rests
	nextID int
	epoch  int
	trace  []Event
}

// NewEngine validates the spec and builds an empty population over the
// setup's floor. The budget feeds the admission capacity gate; rng is the
// engine's root randomness (own it exclusively — the engine splits per-user
// streams from it).
func NewEngine(sp Spec, setup scenario.Setup, budget units.Watts, rng *rand.Rand) (*Engine, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if budget < 0 {
		return nil, fmt.Errorf("workload: negative budget %g W", budget.W())
	}
	// The paper's gantries keep 0.4 m off the walls of the 3 m room; scale
	// the margin down for smaller floors rather than inverting the bounds.
	margin := units.Meters(math.Min(0.4, 0.125*math.Min(setup.Room.Width.M(), setup.Room.Depth.M())))
	e := &Engine{
		spec:   sp,
		budget: budget,
		rng:    rng,
		xMin:   margin, yMin: margin,
		xMax: setup.Room.Width - margin, yMax: setup.Room.Depth - margin,
		slots:  make([]*user, sp.Fleet),
		parked: make([]geom.Vec, sp.Fleet),
	}
	center := geom.V(setup.Room.Width.M()/2, setup.Room.Depth.M()/2, 0)
	for i := range e.parked {
		e.parked[i] = center
	}
	return e, nil
}

// capacity is the admitted-population ceiling: the fleet, tightened by the
// per-user power share when the capacity gate is on.
func (e *Engine) capacity() int {
	limit := e.spec.Fleet
	if e.spec.MinWattsPerUser > 0 {
		if byPower := int(e.budget.W() / e.spec.MinWattsPerUser.W()); byPower < limit {
			limit = byPower
		}
	}
	return limit
}

// Population is the live user count.
func (e *Engine) Population() int {
	n := 0
	for _, u := range e.slots {
		if u != nil {
			n++
		}
	}
	return n
}

// Active reports whether slot i currently hosts a user.
func (e *Engine) Active(i int) bool {
	return i >= 0 && i < len(e.slots) && e.slots[i] != nil
}

// ActiveMask writes the per-slot occupancy into dst (grown as needed) and
// returns it.
func (e *Engine) ActiveMask(dst []bool) []bool {
	if cap(dst) < len(e.slots) {
		dst = make([]bool, len(e.slots))
	}
	dst = dst[:len(e.slots)]
	for i, u := range e.slots {
		dst[i] = u != nil
	}
	return dst
}

// Step advances the population to the round boundary at time t, covering an
// epoch of length dt: departures whose dwell expired first (freeing slots),
// then the survivors' traffic chains, then Poisson(rate·dt) arrivals
// through admission control. Events append to the trace in that order.
func (e *Engine) Step(t, dt units.Seconds) StepStats {
	st := StepStats{Epoch: e.epoch, Time: t}

	for i, u := range e.slots {
		if u == nil || u.departAt > t {
			continue
		}
		// The slot's photodiode parks where the user left it.
		e.parked[i] = u.traj.Position(t)
		e.slots[i] = nil
		st.Departures++
		e.trace = append(e.trace, Event{Epoch: e.epoch, Time: t, Kind: EventDepart, User: u.id, Slot: i, Population: e.Population()})
	}

	for _, u := range e.slots {
		if u != nil {
			u.traffic.step()
		}
	}

	arrivals := poisson(e.rng, e.spec.ArrivalRate*dt.S())
	for k := 0; k < arrivals; k++ {
		slot := e.freeSlot()
		if slot < 0 || e.Population() >= e.capacity() {
			st.Rejections++
			e.trace = append(e.trace, Event{Epoch: e.epoch, Time: t, Kind: EventReject, User: e.nextID, Slot: -1, Population: e.Population()})
			e.nextID++
			continue
		}
		u := &user{
			id:       e.nextID,
			departAt: t + units.Seconds(-e.spec.MeanDwell.S()*math.Log(1-e.rng.Float64())),
			traj: mobility.NewRandomWaypoint(stats.SplitRand(e.rng),
				e.xMin, e.yMin, e.xMax, e.yMax, 0, e.spec.Speed),
			traffic: newTraffic(stats.SplitRand(e.rng)),
		}
		e.nextID++
		e.slots[slot] = u
		st.Arrivals++
		e.trace = append(e.trace, Event{Epoch: e.epoch, Time: t, Kind: EventArrive, User: u.id, Slot: slot, Population: e.Population()})
	}

	st.Population = e.Population()
	for i := range e.slots {
		st.FramesDemanded += e.Demand(i)
	}
	e.epoch++
	return st
}

// freeSlot returns the lowest unoccupied slot, or -1.
func (e *Engine) freeSlot() int {
	for i, u := range e.slots {
		if u == nil {
			return i
		}
	}
	return -1
}

// Position returns slot i's xy position at time t: the tenant's trajectory
// point, or the parked position of a free slot. Time must be non-decreasing
// across calls, as for mobility trajectories.
func (e *Engine) Position(i int, t units.Seconds) geom.Vec {
	if u := e.slots[i]; u != nil {
		p := u.traj.Position(t)
		return geom.V(p.X, p.Y, 0)
	}
	return e.parked[i]
}

// Demand returns slot i's frame demand for the current epoch (zero for
// free slots and idle users).
func (e *Engine) Demand(i int) int {
	if u := e.slots[i]; u != nil {
		return u.traffic.frames()
	}
	return 0
}

// Mask zeroes the channel columns of free slots in place: a departed user's
// photodiode is dark, so the allocator never sees gain toward it. The
// matrix must have M == Fleet columns.
func (e *Engine) Mask(h *channel.Matrix) {
	for i, u := range e.slots {
		if u != nil {
			continue
		}
		for j := 0; j < h.N; j++ {
			h.H[j][i] = 0
		}
	}
}

// Trace returns the append-only event log (shared slice; do not mutate).
func (e *Engine) Trace() []Event { return e.trace }

// TraceBytes renders the trace canonically, one event per line, so two runs
// can be compared byte for byte.
func (e *Engine) TraceBytes() []byte {
	var b strings.Builder
	for _, ev := range e.trace {
		fmt.Fprintf(&b, "%d %.3f %s user=%d slot=%d pop=%d\n",
			ev.Epoch, ev.Time.S(), ev.Kind, ev.User, ev.Slot, ev.Population)
	}
	return []byte(b.String())
}

// poisson draws a Poisson(lambda) count by Knuth's product method — exact,
// allocation-free, and cheap at the per-round intensities churn runs use.
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	limit := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= limit {
			return k
		}
		k++
		if k > 1<<20 { // unreachable at sane intensities; guards a NaN limit
			return k
		}
	}
}
