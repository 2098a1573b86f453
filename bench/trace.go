package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// spanName identifies the call a span measures, as layer.call.
type spanName uint8

const (
	spanEpoch spanName = iota + 1
	spanMulticast
	spanUplink
	spanSolve
	// The calls the benchmark itself makes on floor-churn.
	spanStep
	spanMoveRX
	spanMask
	spanRecord
	spanBuildReport
	spanEncodeReport
	spanDecodeReport
	spanHandleUplink
	spanReallocate
	spanAllocFrame
	spanCount
)

var spanNames = [spanCount]string{
	spanEpoch:        "epoch",
	spanMulticast:    "transport.multicast",
	spanUplink:       "transport.send_uplink",
	spanSolve:        "alloc.allocate",
	spanStep:         "workload.step",
	spanMoveRX:       "scenario.move_rx",
	spanMask:         "workload.mask",
	spanRecord:       "mac.record_measurement",
	spanBuildReport:  "mac.build_report",
	spanEncodeReport: "frame.serialize_mac",
	spanDecodeReport: "frame.decode_mac",
	spanHandleUplink: "mac.handle_uplink",
	spanReallocate:   "mac.reallocate",
	spanAllocFrame:   "frame.allocation_serialize",
}

func (n spanName) String() string { return spanNames[n] }

// span is one timed call. The trace id is the workload and the epoch; the
// workload is the file the spans are written to.
type span struct {
	start, end time.Duration // since the tracer's origin
	epoch      int32
	id, parent int32
	n          int32  // bytes moved, matrix cells solved or calls grouped
	proto      uint16 // MAC protocol of a transport span
	name       spanName
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer records spans into a buffer allocated up front, so recording costs
// two clock reads and one atomic increment. Any goroutine may record; the
// spans are read only after every recording goroutine has stopped.
type tracer struct {
	origin time.Time
	spans  []span
	used   atomic.Int64
	ids    atomic.Int32

	// The open epoch: its index, span id and start. Transport and solve
	// spans attach to it; solves attach to solveParent, which floor-churn
	// points at the enclosing reallocate span.
	epoch       atomic.Int32
	epochID     atomic.Int32
	epochStart  atomic.Int64
	solveParent atomic.Int32
}

func newTracer(capacity int) *tracer {
	t := &tracer{origin: time.Now(), spans: make([]span, capacity)}
	id := t.ids.Add(1)
	t.epochID.Store(id)
	t.solveParent.Store(id)
	return t
}

func (t *tracer) now() time.Duration { return time.Since(t.origin) }

// token is an open span: its reserved id and start.
type token struct {
	id    int32
	start time.Duration
}

// begin opens a span. A nil tracer records nothing, so an untraced run pays
// one nil check per call.
func (t *tracer) begin() token {
	if t == nil {
		return token{}
	}
	return token{id: t.ids.Add(1), start: t.now()}
}

// end closes a span as a child of the open epoch; n is its payload.
func (t *tracer) end(name spanName, tok token, n int) {
	if t == nil {
		return
	}
	t.endUnder(name, tok, t.epochID.Load(), n, 0)
}

// endUnder closes a span under an explicit parent.
func (t *tracer) endUnder(name spanName, tok token, parent int32, n int, proto uint16) {
	t.put(span{start: tok.start, end: t.now(), epoch: t.epoch.Load(), id: tok.id, parent: parent, n: int32(n), proto: proto, name: name})
}

// put stores a finished span; spans beyond the buffer are counted, not kept.
func (t *tracer) put(s span) {
	i := t.used.Add(1) - 1
	if i < int64(len(t.spans)) {
		t.spans[i] = s
	}
}

// solvesUnder makes the open span the parent of the solves that follow,
// until the epoch ends.
func (t *tracer) solvesUnder(tok token) {
	if t != nil {
		t.solveParent.Store(tok.id)
	}
}

// restartEpoch moves the open epoch's start to now (floor-churn: after the
// benchmark's own per-epoch checks).
func (t *tracer) restartEpoch() {
	if t != nil {
		t.epochStart.Store(int64(t.now()))
	}
}

// endEpoch closes the open epoch span now and opens the next one.
func (t *tracer) endEpoch() {
	if t == nil {
		return
	}
	now := t.now()
	t.put(span{start: time.Duration(t.epochStart.Load()), end: now, epoch: t.epoch.Load(), id: t.epochID.Load(), name: spanEpoch})
	next := t.ids.Add(1)
	t.epoch.Add(1)
	t.epochID.Store(next)
	t.solveParent.Store(next)
	t.epochStart.Store(int64(now))
}

// recorded returns the kept spans, or an error when the buffer overflowed.
func (t *tracer) recorded() ([]span, error) {
	used := t.used.Load()
	if used > int64(len(t.spans)) {
		return nil, fmt.Errorf("trace buffer of %d spans overflowed by %d", len(t.spans), used-int64(len(t.spans)))
	}
	return t.spans[:used], nil
}

// selfTimes returns each span's duration minus the part of its interval its
// children cover, indexed like spans. Overlapping children (parallel solves)
// are merged before subtracting.
func selfTimes(spans []span) []time.Duration {
	index := make(map[int32]int, len(spans))
	for i, s := range spans {
		index[s.id] = i
	}
	children := make(map[int32][]int)
	for i, s := range spans {
		if _, ok := index[s.parent]; ok && s.parent != 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(spans, children[s.id], s.start, s.end)
	}
	return self
}

// covered returns the length of [lo, hi] covered by the union of the given
// spans' intervals.
func covered(spans []span, idx []int, lo, hi time.Duration) time.Duration {
	if len(idx) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(idx))
	for _, i := range idx {
		a, b := max(spans[i].start, lo), min(spans[i].end, hi)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	var curA, curB time.Duration
	for k, v := range iv {
		if k == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
			continue
		}
		curB = max(curB, v[1])
	}
	return total + curB - curA
}

// selfRow is one line of the self-time table.
type selfRow struct {
	Name     string  `json:"name"`
	Calls    int     `json:"calls"`
	SelfMS   float64 `json:"self_ms_per_epoch"`
	Share    float64 `json:"share"`
	TotalMS  float64 `json:"total_ms_per_epoch"`
	MeanUSec float64 `json:"mean_us"`
}

// selfTable aggregates self time by span name over the timed epochs
// [from, to). Shares are of the summed epoch span durations.
func selfTable(spans []span, self []time.Duration, from, to int) []selfRow {
	var rows [spanCount]selfRow
	var epochTotal time.Duration
	for i, s := range spans {
		if int(s.epoch) < from || int(s.epoch) >= to {
			continue
		}
		r := &rows[s.name]
		r.Calls++
		r.SelfMS += ms(self[i])
		r.TotalMS += ms(s.dur())
		if s.name == spanEpoch {
			epochTotal += s.dur()
		}
	}
	epochs := float64(to - from)
	var out []selfRow
	for name, r := range rows {
		if r.Calls == 0 {
			continue
		}
		r.Name = spanName(name).String()
		r.MeanUSec = 1e3 * r.TotalMS / float64(r.Calls)
		r.Share = r.SelfMS / ms(epochTotal)
		r.SelfMS /= epochs
		r.TotalMS /= epochs
		out = append(out, r)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SelfMS > out[b].SelfMS })
	return out
}

// writeTrace writes one JSON object per span to dir/<workload>.trace.jsonl.
func writeTrace(dir, workload string, spans []span) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".trace.jsonl"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	var line []byte
	for _, s := range spans {
		line = fmt.Appendf(line[:0], `{"trace":"%s/%d","span":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d,"n":%d,"proto":%d}`+"\n",
			workload, s.epoch, s.id, s.parent, s.name.String(), s.start.Nanoseconds(), s.end.Nanoseconds(), s.n, s.proto)
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return w.Flush()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
