// Package sim provides the discrete-event simulation kernel that the rest
// of the GENESYS reproduction is built on.
//
// The engine advances a virtual clock by executing events in (time,
// sequence) order. Two kinds of activity exist:
//
//   - callbacks: plain functions scheduled with At/After (cancellable) or
//     CallAt/CallAfter (fire-and-forget, allocation-free); they run inline
//     in the engine loop and must not block, and
//   - processes: coroutines written in ordinary imperative style that
//     interact with virtual time through Sleep, Cond.Wait, Queue and
//     Resource operations.
//
// Exactly one process (or the engine loop itself) runs at any instant; the
// engine hands a single execution token back and forth as a direct
// coroutine switch (iter.Pull), so simulations are bit-deterministic for a
// given seed and free of data races by construction.
//
// Internally the engine keeps one event container, a value-based 4-ary
// min-heap keyed by (time, sequence), which holds every pending event —
// same-instant unblocks, yields, spawns and zero-delay callbacks as much
// as far-future deadlines. Events are plain values stored inline in the
// heap, so steady-state scheduling performs no allocation; only the
// cancellable At/After path allocates its Timer handle. See EngineStats
// for the counters that expose this machinery.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"sort"
	"strings"
)

// Time is virtual time in nanoseconds since the start of the simulation.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// MaxTime is the largest representable virtual time.
const MaxTime Time = math.MaxInt64

// Micros constructs a Time from a (possibly fractional) number of
// microseconds.
func Micros(us float64) Time { return Time(us * float64(Microsecond)) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micro reports t as a floating-point number of microseconds.
func (t Time) Micro() float64 { return float64(t) / float64(Microsecond) }

// Milli reports t as a floating-point number of milliseconds.
func (t Time) Milli() float64 { return float64(t) / float64(Millisecond) }

func (t Time) String() string {
	switch {
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.2fus", t.Micro())
	case t < Second:
		return fmt.Sprintf("%.3fms", t.Milli())
	default:
		return fmt.Sprintf("%.4fs", t.Seconds())
	}
}

// procState tracks where a process is in its lifecycle.
type procState int

const (
	procNew procState = iota
	procRunnable
	procRunning
	procBlocked
	procDone
)

type killSignal struct{}

// Proc is a simulated process: a coroutine whose interaction with time is
// mediated by the engine. All Proc methods must be called from the
// process's own body.
type Proc struct {
	e      *Engine
	name   string
	next   func() (struct{}, bool) // engine side: run the body to its next yield
	yield  func(struct{}) bool     // proc side: hand the token back
	state  procState
	reason string // why the proc is blocked, for deadlock reports
	idx    int    // position in Engine.procs, for swap-remove reaping
	daemon bool
	killed bool

	// cw is this process's condition-variable waiter, embedded so Cond
	// waits allocate nothing: a suspended process occupies at most one
	// wait list at a time (see sync.go).
	cw condWaiter
}

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// Rand returns the engine's deterministic random source.
func (p *Proc) Rand() *rand.Rand { return p.e.Rand }

// event is one scheduled occurrence, stored by value in the heap. Exactly
// one of p or fn is set; tmr is non-nil only for cancellable At/After
// callbacks.
type event struct {
	t   Time
	seq uint64
	p   *Proc
	fn  func()
	tmr *Timer
}

// Timer is a handle to a scheduled callback that can be canceled. pos is
// the event's heap index while it is pending, so cancellation never
// searches, and -1 once it has fired or been canceled.
type Timer struct {
	e   *Engine
	pos int
}

// Cancel stops the timer's callback from running. The event is removed
// from the engine immediately — its closure (and any state the closure
// captures) is released at cancel time, not when the event's instant is
// reached — so mass cancellation (e.g. retransmit watchdogs disarmed by
// fast completions) leaves no dead weight in the heap.
// Canceling an already-fired or already-canceled timer is a no-op.
func (t *Timer) Cancel() {
	if t == nil || t.e == nil || t.pos < 0 {
		return
	}
	t.e.stats.TimersCanceled++
	t.e.heapRemove(t.pos)
	t.pos = -1
}

// EngineStats counts the engine's own mechanics: how many events were
// scheduled, how many callbacks ran inline versus process resumptions
// (each resumption is a pair of coroutine switches), and timer/process
// lifecycle totals. They never influence virtual-time behavior; they
// exist so host-throughput work (events per host-second) is measurable,
// and are exported in the obs metrics registry under sim.*.
type EngineStats struct {
	Scheduled      uint64 // events ever scheduled
	CallbacksRun   uint64 // callback events executed inline
	ProcSwitches   uint64 // engine→process token handoffs (resumptions)
	TimersCanceled uint64 // At/After timers canceled before firing
	ProcsSpawned   uint64 // processes ever spawned
	ProcsReaped    uint64 // completed processes removed from the proc table
	HeapPeak       int    // high-water mark of the event heap
}

// Engine is the discrete-event simulation core.
type Engine struct {
	now Time
	seq uint64

	// heap is the value-based 4-ary min-heap (ordered by (t, seq)) that
	// holds every pending event, same-instant or far.
	heap []event

	// inProc is true while a process holds the execution token; it guards
	// ResumeInline against being called outside callback context.
	inProc bool

	procs    []*Proc // live (not yet completed) processes
	live     int     // procs spawned and not yet done
	liveUser int     // live non-daemon procs
	fatal    error

	stats EngineStats

	// Rand is the engine-wide deterministic random source.
	Rand *rand.Rand
}

// NewEngine returns an engine whose random source is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{Rand: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Deadline returns the instant d from now, saturating at MaxTime: a huge
// d (a user-supplied timeout or sleep) means "not before the end of time"
// instead of wrapping into the past.
func (e *Engine) Deadline(d Time) Time {
	if d > MaxTime-e.now {
		return MaxTime
	}
	return e.now + d
}

// Stats returns a snapshot of the engine's mechanical counters.
func (e *Engine) Stats() EngineStats { return e.stats }

// Pending returns the number of events currently scheduled and not yet
// executed.
func (e *Engine) Pending() int { return len(e.heap) }

// LiveProcs returns the number of processes spawned and not yet finished.
func (e *Engine) LiveProcs() int { return e.live }

// --- event heap -------------------------------------------------------------

// The heap is 4-ary: pops dominate the scheduler's cost, and a wider node
// halves the sift depth — and with it the number of 40-byte event moves
// and their GC write barriers — while the extra comparisons per level
// stay in cache-resident memory. Because the key (t, seq) is a
// strict total order, pop order (and therefore every simulation artifact)
// is identical whatever the heap's arity or internal layout.
const heapArity = 4

func eventLess(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// siftUp restores the heap invariant upward from i; it reports whether
// the entry moved. Sifts move the hole, not pairwise swaps: each level
// costs one event copy instead of three.
func (e *Engine) siftUp(i int) bool {
	h := e.heap
	ev := h[i]
	moved := false
	for i > 0 {
		parent := (i - 1) / heapArity
		if !eventLess(&ev, &h[parent]) {
			break
		}
		h[i] = h[parent]
		if t := h[i].tmr; t != nil {
			t.pos = i
		}
		i = parent
		moved = true
	}
	if moved {
		h[i] = ev
		if t := ev.tmr; t != nil {
			t.pos = i
		}
	}
	return moved
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	ev := h[i]
	for {
		c := heapArity*i + 1
		if c >= n {
			break
		}
		end := c + heapArity
		if end > n {
			end = n
		}
		least := c
		for k := c + 1; k < end; k++ {
			if eventLess(&h[k], &h[least]) {
				least = k
			}
		}
		if !eventLess(&h[least], &ev) {
			break
		}
		h[i] = h[least]
		if t := h[i].tmr; t != nil {
			t.pos = i
		}
		i = least
	}
	h[i] = ev
	if t := ev.tmr; t != nil {
		t.pos = i
	}
}

func (e *Engine) heapPush(ev event) {
	e.heap = append(e.heap, ev)
	i := len(e.heap) - 1
	if ev.tmr != nil {
		ev.tmr.pos = i
	}
	e.siftUp(i)
	if len(e.heap) > e.stats.HeapPeak {
		e.stats.HeapPeak = len(e.heap)
	}
}

func (e *Engine) heapPop() event {
	top := e.heap[0]
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap[n] = event{} // release the vacated slot's references
	e.heap = e.heap[:n]
	if n > 0 {
		e.siftDown(0)
	}
	return top
}

// heapRemove deletes entry i (timer cancellation), releasing its
// references immediately and re-establishing the heap invariant.
func (e *Engine) heapRemove(i int) {
	n := len(e.heap) - 1
	moved := e.heap[n]
	e.heap[n] = event{}
	e.heap = e.heap[:n]
	if i == n {
		return
	}
	e.heap[i] = moved
	if moved.tmr != nil {
		moved.tmr.pos = i
	}
	if !e.siftUp(i) {
		e.siftDown(i)
	}
}

// schedule stamps ev with the next sequence number and pushes it.
func (e *Engine) schedule(ev event) {
	if ev.t < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past (%v < %v)", ev.t, e.now))
	}
	e.seq++
	e.stats.Scheduled++
	ev.seq = e.seq
	e.heapPush(ev)
}

// scheduleTimer schedules fn at t under the handle tm, or under a fresh
// one if tm is nil.
func (e *Engine) scheduleTimer(t Time, fn func(), tm *Timer) *Timer {
	if tm == nil {
		tm = &Timer{e: e}
	}
	e.schedule(event{t: t, fn: fn, tmr: tm})
	return tm
}

// At schedules fn to run as a callback at absolute time t. Callbacks run
// inline in the engine loop and must not block. The returned Timer can
// cancel the callback; code that never cancels should prefer CallAt,
// which allocates nothing.
func (e *Engine) At(t Time, fn func()) *Timer {
	return e.scheduleTimer(t, fn, nil)
}

// After schedules fn to run as a callback d from now.
func (e *Engine) After(d Time, fn func()) *Timer {
	return e.scheduleTimer(e.now+d, fn, nil)
}

// AtReuse is At recycling tm — a Timer from a previous arm that has
// since fired or been canceled — instead of allocating a new one. A nil,
// foreign, or still-armed tm falls back to a fresh Timer, so callers can
// unconditionally store the result. Code that re-arms one deadline per
// request (the fleet session timeout) stays allocation-free this way.
func (e *Engine) AtReuse(t Time, fn func(), tm *Timer) *Timer {
	if tm != nil && (tm.e != e || tm.pos >= 0) {
		tm = nil
	}
	return e.scheduleTimer(t, fn, tm)
}

// CallAt schedules fn to run as a callback at absolute time t, with no
// cancellation handle. This is the fast path for fixed-latency hops (IRQ
// delivery, datagram delivery, watchdog ticks): the event is stored by
// value, so scheduling performs no allocation and the hop runs inline in
// the engine loop instead of costing a process switch.
func (e *Engine) CallAt(t Time, fn func()) {
	e.schedule(event{t: t, fn: fn})
}

// CallAfter schedules fn to run as a callback d from now, with no
// cancellation handle (see CallAt).
func (e *Engine) CallAfter(d Time, fn func()) {
	e.schedule(event{t: e.now + d, fn: fn})
}

// Spawn starts a new process named name running fn. The process begins
// execution at the current virtual time, after the caller next yields to
// the engine.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	return e.spawn(name, fn, false)
}

// SpawnDaemon starts a process that is expected to block forever (worker
// pools, dispatchers). Daemons do not count toward deadlock detection and
// are reaped by Shutdown.
func (e *Engine) SpawnDaemon(name string, fn func(*Proc)) *Proc {
	return e.spawn(name, fn, true)
}

func (e *Engine) spawn(name string, fn func(*Proc), daemon bool) *Proc {
	p := &Proc{e: e, name: name, daemon: daemon}
	p.idx = len(e.procs)
	e.procs = append(e.procs, p)
	e.live++
	e.stats.ProcsSpawned++
	if !daemon {
		e.liveUser++
	}
	p.startCoro(fn)
	e.schedule(event{t: e.now, p: p})
	p.state = procRunnable
	return p
}

// run is the process body: it runs fn on the process's coroutine and
// retires the process when fn returns. Every panic is recovered here —
// a killSignal unwind from Shutdown silently, anything else as the
// engine's fatal error — so none escapes into the engine loop.
func (p *Proc) run(fn func(*Proc)) {
	e := p.e
	defer func() {
		if r := recover(); r != nil {
			if _, isKill := r.(killSignal); !isKill && e.fatal == nil {
				e.fatal = fmt.Errorf("sim: proc %q panicked: %v\n%s", p.name, r, debug.Stack())
			}
		}
		p.state = procDone
		e.live--
		if !p.daemon {
			e.liveUser--
		}
		e.reap(p)
	}()
	if p.killed {
		panic(killSignal{})
	}
	p.state = procRunning
	fn(p)
}

// reap removes a completed process from the proc table by swap-remove, so
// long-running simulations do not accumulate one *Proc per retired
// activity (e.g. per retired wavefront). It runs in the dying process's
// coroutine while the engine is parked in resume(), so the table is never
// touched concurrently; deadlock reports and Shutdown only ever need the
// still-live processes that remain.
func (e *Engine) reap(p *Proc) {
	last := len(e.procs) - 1
	if p.idx < 0 || p.idx > last || e.procs[p.idx] != p {
		return
	}
	moved := e.procs[last]
	e.procs[p.idx] = moved
	moved.idx = p.idx
	e.procs[last] = nil
	e.procs = e.procs[:last]
	p.idx = -1
	e.stats.ProcsReaped++
}

// resume hands the execution token to p and waits for it to come back.
func (e *Engine) resume(p *Proc) {
	if p.state == procDone {
		return
	}
	e.stats.ProcSwitches++
	e.inProc = true
	p.next()
	e.inProc = false
}

// switchToEngine gives the token back to the engine and blocks until the
// engine resumes this process.
func (p *Proc) switchToEngine() {
	p.yield(struct{}{})
	if p.killed {
		panic(killSignal{})
	}
	p.state = procRunning
}

// Sleep suspends the process for duration d of virtual time, or until
// MaxTime if now+d would pass it.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	if d == 0 {
		return
	}
	p.e.schedule(event{t: p.e.Deadline(d), p: p})
	p.state = procBlocked
	p.reason = "sleep"
	p.switchToEngine()
}

// Yield reschedules the process at the current time, letting any other
// event scheduled for this instant run first.
func (p *Proc) Yield() {
	p.e.schedule(event{t: p.e.now, p: p})
	p.state = procBlocked
	p.reason = "yield"
	p.switchToEngine()
}

// block suspends the process with no scheduled wake-up; something else
// (a Cond, Queue or Resource) must schedule its resumption.
func (p *Proc) block(reason string) {
	p.state = procBlocked
	p.reason = reason
	p.switchToEngine()
}

// unblock schedules p to resume at the current time.
func (p *Proc) unblock() {
	p.e.schedule(event{t: p.e.now, p: p})
	p.state = procRunnable
}

// Park suspends the process with no scheduled wake-up until an engine
// callback resumes it with Engine.ResumeInline. Unlike Cond.Wait, the
// resumption is not a scheduled event: the process continues inside the
// event that resumed it, at the same (t, seq) position. reason is shown
// in deadlock reports.
func (p *Proc) Park(reason string) {
	p.block(reason)
}

// ResumeInline hands the execution token to a parked process from inside
// a running callback: p continues from Park within the current event —
// exactly as if the event had been a resumption of p itself — rather
// than via a freshly scheduled event, so the engine's event sequence is
// unchanged by the park/resume round trip. It must be called from
// callback context (the engine loop), never from a process.
func (e *Engine) ResumeInline(p *Proc) {
	if e.inProc {
		panic("sim: ResumeInline called from process context")
	}
	if p.state != procBlocked {
		panic(fmt.Sprintf("sim: ResumeInline of %s proc %q", []string{"new", "runnable", "running", "blocked", "done"}[p.state], p.name))
	}
	e.resume(p)
}

// ErrDeadlock is returned by Run when no events remain but non-daemon
// processes are still blocked.
type ErrDeadlock struct {
	Now     Time
	Blocked []string // "name (reason)" for each blocked non-daemon proc
}

func (e *ErrDeadlock) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d proc(s) blocked forever: %s",
		e.Now, len(e.Blocked), strings.Join(e.Blocked, "; "))
}

// Run executes events until none remain. It returns nil on quiescence
// (all non-daemon processes finished), an *ErrDeadlock if non-daemon
// processes are blocked with no pending events, or the panic error of a
// crashed process.
func (e *Engine) Run() error { return e.RunUntil(MaxTime) }

// RunUntil executes events with time ≤ limit. Reaching the limit with
// events still pending is not an error; the clock is left at limit.
func (e *Engine) RunUntil(limit Time) error {
	for {
		if e.fatal != nil {
			return e.fatal
		}
		if len(e.heap) == 0 {
			if e.liveUser > 0 {
				return e.deadlockErr()
			}
			return nil
		}
		if e.heap[0].t > limit {
			e.now = limit
			return nil
		}
		ev := e.heapPop()
		e.now = ev.t
		if ev.tmr != nil {
			ev.tmr.pos = -1
		}
		if ev.p != nil {
			e.resume(ev.p)
		} else {
			e.stats.CallbacksRun++
			ev.fn()
		}
	}
}

func (e *Engine) deadlockErr() error {
	var blocked []string
	for _, p := range e.procs {
		if !p.daemon && p.state == procBlocked {
			blocked = append(blocked, fmt.Sprintf("%s (%s)", p.name, p.reason))
		}
	}
	sort.Strings(blocked)
	return &ErrDeadlock{Now: e.now, Blocked: blocked}
}

// Shutdown kills every still-live process so no coroutines leak. It must
// be called from outside the engine loop (i.e. not from a proc or
// callback), typically after Run returns.
func (e *Engine) Shutdown() {
	// Dying procs swap-remove themselves from e.procs, so kill a snapshot.
	live := make([]*Proc, len(e.procs))
	copy(live, e.procs)
	for _, p := range live {
		if p == nil || p.state == procDone || p.state == procNew {
			continue
		}
		p.killed = true
		e.resume(p)
	}
	// Mark pending timers inert so a later Cancel is a no-op.
	for _, ev := range e.heap {
		if ev.tmr != nil {
			ev.tmr.pos = -1
		}
	}
	e.heap = nil
}
