package lint

import (
	"strings"
	"testing"
)

// Fixtures for the concurrency-discipline analyzers. Each case is its own
// little module, following the interproc_test.go harness.

// --- lockorder --------------------------------------------------------------

func TestLockOrder(t *testing.T) {
	tests := []struct {
		name  string
		files []fixtureSrc
		want  []string
	}{
		{
			// The canonical AB/BA deadlock, one side through a call.
			name: "opposite acquisition orders flagged on both sides",
			files: []fixtureSrc{{
				path: "densevlc/internal/lo",
				file: "lo1.go",
				src: `package lo

import "sync"

type S struct {
	a sync.Mutex
	b sync.Mutex
}

func (s *S) AB() {
	s.a.Lock()
	defer s.a.Unlock()
	s.lockB()
}

func (s *S) lockB() {
	s.b.Lock()
	s.b.Unlock()
}

func (s *S) BA() {
	s.b.Lock()
	s.a.Lock()
	s.a.Unlock()
	s.b.Unlock()
}
`,
			}},
			want: []string{"lo1.go:13 lockorder", "lo1.go:23 lockorder"},
		},
		{
			name: "re-acquisition through a call chain flagged",
			files: []fixtureSrc{{
				path: "densevlc/internal/lo",
				file: "lo2.go",
				src: `package lo

import "sync"

type R struct{ mu sync.Mutex }

func (r *R) Outer() {
	r.mu.Lock()
	r.helper()
	r.mu.Unlock()
}

func (r *R) helper() {
	r.mu.Lock()
	r.mu.Unlock()
}
`,
			}},
			want: []string{"lo2.go:9 lockorder"},
		},
		{
			name: "direct double acquisition flagged",
			files: []fixtureSrc{{
				path: "densevlc/internal/lo",
				file: "lo3.go",
				src: `package lo

import "sync"

func Direct() {
	var mu sync.Mutex
	mu.Lock()
	mu.Lock()
	mu.Unlock()
	mu.Unlock()
}
`,
			}},
			want: []string{"lo3.go:8 lockorder"},
		},
		{
			// Consistent ordering everywhere: edges exist but no cycle.
			name: "consistent order passes",
			files: []fixtureSrc{{
				path: "densevlc/internal/lo",
				file: "lo4.go",
				src: `package lo

import "sync"

type S4 struct {
	a sync.Mutex
	b sync.Mutex
}

func (s *S4) Nested() {
	s.a.Lock()
	s.b.Lock()
	s.b.Unlock()
	s.a.Unlock()
}

func (s *S4) Indirect() {
	s.a.Lock()
	s.lockB4()
	s.a.Unlock()
}

func (s *S4) lockB4() {
	s.b.Lock()
	s.b.Unlock()
}
`,
			}},
			want: nil,
		},
		{
			// The early-unlock-and-return idiom releases before the second
			// lock, so no reverse edge forms.
			name: "early-return unlock idiom passes",
			files: []fixtureSrc{{
				path: "densevlc/internal/lo",
				file: "lo5.go",
				src: `package lo

import "sync"

type S5 struct {
	a sync.Mutex
	b sync.Mutex
}

func (s *S5) Forward() {
	s.a.Lock()
	s.b.Lock()
	s.b.Unlock()
	s.a.Unlock()
}

func (s *S5) Reverse(closed bool) {
	s.b.Lock()
	if closed {
		s.b.Unlock()
		return
	}
	s.b.Unlock()
	s.a.Lock()
	s.a.Unlock()
}
`,
			}},
			want: nil,
		},
		{
			name: "suppressed cycle passes",
			files: []fixtureSrc{{
				path: "densevlc/internal/lo",
				file: "lo6.go",
				src: `package lo

import "sync"

type S6 struct {
	a sync.Mutex
	b sync.Mutex
}

func (s *S6) AB() {
	s.a.Lock()
	//lint:ignore lockorder startup-only path; never concurrent with BA
	s.b.Lock()
	s.b.Unlock()
	s.a.Unlock()
}

func (s *S6) BA() {
	s.b.Lock()
	//lint:ignore lockorder startup-only path; never concurrent with AB
	s.a.Lock()
	s.a.Unlock()
	s.b.Unlock()
}
`,
			}},
			want: nil,
		},
		{
			name: "cross-package cycle flagged with call provenance",
			files: []fixtureSrc{
				{
					path: "densevlc/internal/lol",
					file: "lol.go",
					src: `package lol

import "sync"

type Locks struct {
	A sync.Mutex
	B sync.Mutex
}

func (l *Locks) WithB() {
	l.B.Lock()
	l.B.Unlock()
}
`,
				},
				{
					path: "densevlc/internal/lo",
					file: "lo7.go",
					src: `package lo

import "densevlc/internal/lol"

func Cycle(l *lol.Locks) {
	l.A.Lock()
	l.WithB()
	l.A.Unlock()
	l.B.Lock()
	l.A.Lock()
	l.A.Unlock()
	l.B.Unlock()
}
`,
				},
			},
			want: []string{"lo7.go:7 lockorder", "lo7.go:10 lockorder"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			assertFindings(t, runFixture(t, tt.files, "lockorder"), tt.want...)
		})
	}
}

func TestLockOrderMessageNamesCalleeAndWitness(t *testing.T) {
	findings := runFixture(t, []fixtureSrc{
		{
			path: "densevlc/internal/lol",
			file: "lolm.go",
			src: `package lol

import "sync"

type Locks struct {
	A sync.Mutex
	B sync.Mutex
}

func (l *Locks) WithB() {
	l.B.Lock()
	l.B.Unlock()
}
`,
		},
		{
			path: "densevlc/internal/lo",
			file: "lom.go",
			src: `package lo

import "densevlc/internal/lol"

func Cycle(l *lol.Locks) {
	l.A.Lock()
	l.WithB()
	l.A.Unlock()
	l.B.Lock()
	l.A.Lock()
	l.A.Unlock()
	l.B.Unlock()
}
`,
		},
	}, "lockorder")
	if len(findings) != 2 {
		t.Fatalf("want 2 findings, got %v", keys(findings))
	}
	if !strings.Contains(findings[0].Message, "via call to (*lol.Locks).WithB") {
		t.Errorf("indirect edge should name the callee: %s", findings[0].Message)
	}
	if !strings.Contains(findings[0].Message, "lol.Locks.B acquired while holding lol.Locks.A") {
		t.Errorf("finding should name both locks: %s", findings[0].Message)
	}
	if !strings.Contains(findings[0].Message, "lom.go:10") {
		t.Errorf("finding should cite the reverse-order witness: %s", findings[0].Message)
	}
}

// --- lockscope --------------------------------------------------------------

func TestLockScope(t *testing.T) {
	tests := []struct {
		name  string
		files []fixtureSrc
		want  []string
	}{
		{
			name: "channel receive under deferred unlock flagged",
			files: []fixtureSrc{{
				path: "densevlc/internal/ls",
				file: "ls1.go",
				src: `package ls

import "sync"

type P struct {
	mu sync.Mutex
	ch chan int
}

func (p *P) RecvHeld() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return <-p.ch
}
`,
			}},
			want: []string{"ls1.go:13 lockscope"},
		},
		{
			name: "select without default under lock flagged",
			files: []fixtureSrc{{
				path: "densevlc/internal/ls",
				file: "ls2.go",
				src: `package ls

import "sync"

type P2 struct {
	mu sync.Mutex
	ch chan int
}

func (p *P2) SelHeld() {
	p.mu.Lock()
	select {
	case v := <-p.ch:
		_ = v
	}
	p.mu.Unlock()
}
`,
			}},
			want: []string{"ls2.go:12 lockscope"},
		},
		{
			name: "wg.Wait under lock flagged",
			files: []fixtureSrc{{
				path: "densevlc/internal/ls",
				file: "ls3.go",
				src: `package ls

import "sync"

type W struct {
	mu sync.Mutex
	wg sync.WaitGroup
}

func (w *W) WaitHeld() {
	w.mu.Lock()
	w.wg.Wait()
	w.mu.Unlock()
}
`,
			}},
			want: []string{"ls3.go:12 lockscope"},
		},
		{
			// The interprocedural direction: the critical section calls a
			// chain that ends in time.Sleep two hops away.
			name: "call chain reaching a sleep flagged at the call site",
			files: []fixtureSrc{{
				path: "densevlc/internal/ls",
				file: "ls4.go",
				src: `package ls

import (
	"sync"
	"time"
)

type T struct{ mu sync.Mutex }

func (t *T) Tick() {
	t.mu.Lock()
	nap()
	t.mu.Unlock()
}

func nap() { nap2() }

func nap2() { time.Sleep(time.Millisecond) }
`,
			}},
			want: []string{"ls4.go:12 lockscope"},
		},
		{
			// A raw socket read parks its OS thread until a datagram
			// arrives: the udpNode.Receive shape must release the lock
			// first, and each of the three reads held under it is flagged.
			name: "raw socket reads under a lock flagged",
			files: []fixtureSrc{{
				path: "densevlc/internal/ls",
				file: "ls9.go",
				src: `package ls

import (
	"sync"
	"syscall"
)

type S struct {
	mu sync.Mutex
	fd int
}

func (s *S) RecvHeld(buf []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, _, _ = syscall.Recvfrom(s.fd, buf, 0)
	_, _, _, _, _ = syscall.Recvmsg(s.fd, buf, nil, 0)
	_, _ = syscall.Read(s.fd, buf)
}

func (s *S) RecvReleased(buf []byte) (int, error) {
	s.mu.Lock()
	fd := s.fd
	s.mu.Unlock()
	n, _, err := syscall.Recvfrom(fd, buf, 0)
	return n, err
}
`,
			}},
			want: []string{"ls9.go:16 lockscope", "ls9.go:17 lockscope", "ls9.go:18 lockscope"},
		},
		{
			// The hub.deliver / memController idioms: copy under the lock,
			// release, then block; try-send with default stays allowed.
			name: "copy-then-send and select-with-default pass",
			files: []fixtureSrc{{
				path: "densevlc/internal/ls",
				file: "ls5.go",
				src: `package ls

import "sync"

type P5 struct {
	mu sync.Mutex
	ch chan int
}

func (p *P5) Deliver(v int) {
	p.mu.Lock()
	pending := v
	p.mu.Unlock()
	p.ch <- pending
}

func (p *P5) TryPush(v int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case p.ch <- v:
	default:
	}
}
`,
			}},
			want: nil,
		},
		{
			// The udpController.Multicast shape: one branch unlocks and
			// returns, the fallthrough unlocks before blocking.
			name: "early-return unlock branch passes",
			files: []fixtureSrc{{
				path: "densevlc/internal/ls",
				file: "ls6.go",
				src: `package ls

import "sync"

type P6 struct {
	mu     sync.Mutex
	closed bool
	ch     chan int
}

func (p *P6) Guarded() int {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return 0
	}
	p.mu.Unlock()
	return <-p.ch
}
`,
			}},
			want: nil,
		},
		{
			name: "suppressed blocking op passes",
			files: []fixtureSrc{{
				path: "densevlc/internal/ls",
				file: "ls7.go",
				src: `package ls

import "sync"

type P7 struct {
	mu sync.Mutex
	ch chan int
}

func (p *P7) Audited() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	//lint:ignore lockscope single-consumer channel; producer never takes mu
	return <-p.ch
}
`,
			}},
			want: nil,
		},
		{
			name: "cross-package blocking callee flagged",
			files: []fixtureSrc{
				{
					path: "densevlc/internal/lsl",
					file: "lsl.go",
					src: `package lsl

func Flush(ch chan int) {
	ch <- 0
}
`,
				},
				{
					path: "densevlc/internal/ls",
					file: "ls8.go",
					src: `package ls

import (
	"sync"

	"densevlc/internal/lsl"
)

type P8 struct {
	mu sync.Mutex
	ch chan int
}

func (p *P8) FlushHeld() {
	p.mu.Lock()
	lsl.Flush(p.ch)
	p.mu.Unlock()
}
`,
				},
			},
			want: []string{"ls8.go:16 lockscope"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			assertFindings(t, runFixture(t, tt.files, "lockscope"), tt.want...)
		})
	}
}

// --- RunTimed ---------------------------------------------------------------

func TestRunTimedReportsEveryRule(t *testing.T) {
	mod := fixtureModule(t, []fixtureSrc{{
		path: "densevlc/internal/rt",
		file: "rt1.go",
		src: `package rt

import "sync"

var mu sync.Mutex

func Send(ch chan int) {
	mu.Lock()
	ch <- 1
	mu.Unlock()
}
`,
	}})
	findings, timings := RunTimed(mod.Pkgs, Analyzers())
	if len(findings) != 1 || findings[0].Rule != "lockscope" {
		t.Fatalf("want the lockscope finding, got %v", keys(findings))
	}
	// callgraph pseudo-entry first, then one entry per analyzer in order.
	if len(timings) != len(Analyzers())+1 {
		t.Fatalf("want %d timing entries, got %d", len(Analyzers())+1, len(timings))
	}
	if timings[0].Rule != "callgraph" {
		t.Errorf("first timing entry should be callgraph, got %s", timings[0].Rule)
	}
	byRule := map[string]RuleTiming{}
	for _, tm := range timings {
		if tm.Elapsed < 0 {
			t.Errorf("negative elapsed for %s", tm.Rule)
		}
		byRule[tm.Rule] = tm
	}
	if byRule["lockscope"].Findings != 1 {
		t.Errorf("lockscope timing should count 1 finding, got %d", byRule["lockscope"].Findings)
	}
	if byRule["hotalloc"].Findings != 0 {
		t.Errorf("hotalloc timing should count 0 findings, got %d", byRule["hotalloc"].Findings)
	}
}
