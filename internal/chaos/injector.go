package chaos

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"densevlc/internal/channel"
	"densevlc/internal/units"
)

// Target is what the injector applies faults to: the simulation's model of
// the physical layer. Faults implements it for both runtimes.
type Target interface {
	// FailTX turns transmitter tx's LED dark.
	FailTX(tx int)
	// RecoverTX returns transmitter tx to service.
	RecoverTX(tx int)
	// SetRXAttenuation scales every LOS gain into rx by keep (1 = clear,
	// 0 = opaque blockage).
	SetRXAttenuation(rx int, keep float64)
	// SkewClock adds delta to transmitter tx's trigger-clock offset.
	SkewClock(tx int, delta units.Seconds)
}

// Faults is what injected faults do to the optical medium (scenario.Medium
// owns the one copy both runtimes read): a failed TX's LED is dark (zero
// pilot energy, zero data contribution, zero interference), each RX keeps a
// fraction of every LOS gain into it (1 = clear, 0 = opaque blockage), and
// each TX's trigger clock carries a skew that adds to its data-phase
// offset. Out-of-range indices are ignored. Faults is not safe for
// concurrent use; node.Hub guards its medium with the hub lock.
type Faults struct {
	failed []bool
	keep   []float64
	skew   []units.Seconds
}

// NewFaults returns the fault-free state of n transmitters and m receivers.
func NewFaults(n, m int) *Faults {
	f := &Faults{
		failed: make([]bool, n),
		keep:   make([]float64, m),
		skew:   make([]units.Seconds, n),
	}
	for i := range f.keep {
		f.keep[i] = 1
	}
	return f
}

// FailTX implements Target.
func (f *Faults) FailTX(tx int) {
	if tx >= 0 && tx < len(f.failed) {
		f.failed[tx] = true
	}
}

// RecoverTX implements Target.
func (f *Faults) RecoverTX(tx int) {
	if tx >= 0 && tx < len(f.failed) {
		f.failed[tx] = false
	}
}

// SetRXAttenuation implements Target; keep is clamped to [0, 1], and a
// negative zero is stored as +0.
func (f *Faults) SetRXAttenuation(rx int, keep float64) {
	if rx >= 0 && rx < len(f.keep) {
		f.keep[rx] = math.Min(1, math.Max(0, keep))
	}
}

// SkewClock implements Target: steps accumulate.
func (f *Faults) SkewClock(tx int, delta units.Seconds) {
	if tx >= 0 && tx < len(f.skew) {
		f.skew[tx] += delta
	}
}

// Gain returns the faulted gain of link tx→rx of the clear matrix h.
func (f *Faults) Gain(h *channel.Matrix, tx, rx int) float64 {
	if f.failed[tx] {
		return 0
	}
	return h.Gain(tx, rx) * f.keep[rx]
}

// Skew returns transmitter tx's accumulated trigger-clock skew (zero for an
// out-of-range index).
func (f *Faults) Skew(tx int) units.Seconds {
	if tx < 0 || tx >= len(f.skew) {
		return 0
	}
	return f.skew[tx]
}

// FailedTXs lists the dark transmitters in index order.
func (f *Faults) FailedTXs() []int {
	var out []int
	for j, dark := range f.failed {
		if dark {
			out = append(out, j)
		}
	}
	return out
}

// TraceEntry records one applied event.
type TraceEntry struct {
	// Round is the control epoch the event applied in.
	Round int
	// Now is the virtual time of that epoch.
	Now units.Seconds
	// Event is the schedule entry that fired.
	Event Event
}

// Trace is the append-only record of applied events. Its Bytes are the
// reproducibility artefact: identical seed and schedule must yield identical
// bytes regardless of worker count or goroutine interleaving.
type Trace struct {
	mu      sync.Mutex
	entries []TraceEntry
}

// Len returns the number of applied events.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

// Bytes renders the canonical trace: one line per applied event,
// "round <r> t=<now> <at:kind:target[:value]>". Byte-identical traces are
// the chaos layer's determinism contract.
func (t *Trace) Bytes() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	for _, e := range t.entries {
		fmt.Fprintf(&b, "round %d t=%g %s\n", e.Round, e.Now.S(), e.Event)
	}
	return []byte(b.String())
}

// Injector replays a schedule against a target as virtual time advances.
// It is not safe for concurrent use: exactly one engine loop drives it, at
// round boundaries, which is what keeps the trace deterministic.
type Injector struct {
	events []Event // normalised order
	cursor int
	trace  Trace
}

// NewInjector builds an injector over the schedule's normalised event order.
// A nil schedule yields an injector that never fires.
func NewInjector(s *Schedule) *Injector {
	in := &Injector{}
	if s != nil {
		in.events = s.Events()
	}
	return in
}

// Apply fires every not-yet-applied event with At <= now against the target,
// in schedule order, recording each into the trace. It returns the number of
// events applied. Round labels the control epoch for the trace.
func (in *Injector) Apply(round int, now units.Seconds, tgt Target) int {
	applied := 0
	for in.cursor < len(in.events) && in.events[in.cursor].At <= now {
		e := in.events[in.cursor]
		in.cursor++
		switch e.Kind {
		case KindTXFail:
			tgt.FailTX(e.Target)
		case KindTXRecover:
			tgt.RecoverTX(e.Target)
		case KindRXBlock:
			tgt.SetRXAttenuation(e.Target, e.Value)
		case KindRXUnblock:
			tgt.SetRXAttenuation(e.Target, 1)
		case KindClockStep:
			tgt.SkewClock(e.Target, units.Seconds(e.Value))
		}
		in.trace.mu.Lock()
		in.trace.entries = append(in.trace.entries, TraceEntry{Round: round, Now: now, Event: e})
		in.trace.mu.Unlock()
		applied++
	}
	return applied
}

// Pending returns the number of events not yet applied.
func (in *Injector) Pending() int { return len(in.events) - in.cursor }

// Trace returns the applied-event record.
func (in *Injector) Trace() *Trace { return &in.trace }
