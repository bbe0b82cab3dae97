package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// eventRec identifies one scheduled event by its (time, seq) key — the
// total order the engine promises to execute in.
type eventRec struct {
	t   Time
	seq uint64
}

// TestInterleavingMatchesReferenceOrder is the determinism property test
// for the event heap: a random workload where callbacks recursively
// schedule more work at the current instant, in the near future, and
// milliseconds to seconds out, with a random subset of timers canceled,
// must execute in exactly the (t, seq) total order a reference sort of
// the surviving events produces.
func TestInterleavingMatchesReferenceOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(1)
		var got []eventRec    // order the engine actually ran events in
		var expect []eventRec // reference: every surviving event's key
		var canceled []*Timer // timers to cancel from inside the run
		const maxEvents = 300
		count := 0

		var plant func(depth int)
		plant = func(depth int) {
			n := rng.Intn(4)
			for i := 0; i < n && count < maxEvents; i++ {
				count++
				var d Time
				switch rng.Intn(6) {
				case 0, 1:
					d = 0 // same instant
				case 2, 3:
					d = Time(rng.Intn(40) + 1) // near future
				case 4:
					// Far future: 128µs to ~16.8s away.
					d = 128*Microsecond + Time(rng.Int63n(int64(16800*Millisecond)))
				default:
					// Farther still: ~16.8s to ~17.1s away.
					d = 16800*Millisecond + Time(rng.Int63n(int64(262*Millisecond)))
				}
				sq := e.seq + 1 // seq the next schedule call will assign
				rec := eventRec{e.now + d, sq}
				dd := depth
				fire := func() {
					got = append(got, eventRec{e.now, rec.seq})
					if dd < 5 {
						plant(dd + 1)
					}
				}
				switch rng.Intn(3) {
				case 0: // fire-and-forget fast path
					e.CallAfter(d, fire)
					expect = append(expect, rec)
				case 1: // cancellable, kept
					e.After(d, fire)
					expect = append(expect, rec)
				default: // cancellable, canceled before it can run
					tm := e.After(d, func() {
						t.Errorf("canceled timer fired (seed %d)", seed)
					})
					// Cancel while the heap holds live events at this
					// and later instants, so removal from its middle is
					// exercised.
					tm.Cancel()
					canceled = append(canceled, tm)
				}
			}
		}
		plant(0)
		if err := e.Run(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return false
		}
		for _, c := range canceled {
			c.Cancel() // leftovers: must be fired-or-gone no-ops
		}
		sort.Slice(expect, func(i, j int) bool {
			if expect[i].t != expect[j].t {
				return expect[i].t < expect[j].t
			}
			return expect[i].seq < expect[j].seq
		})
		if fmt.Sprint(got) != fmt.Sprint(expect) {
			t.Errorf("seed %d: order diverged from reference\n got: %v\nwant: %v",
				seed, got, expect)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestSameInstantEventsRunInScheduleOrder checks that same-instant
// events — mixed zero-delay callbacks, yields and unblocks — run in
// scheduling order.
func TestSameInstantEventsRunInScheduleOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Spawn("driver", func(p *Proc) {
		p.Sleep(10)
		e.CallAfter(0, func() { got = append(got, 1) })
		e.CallAt(e.Now(), func() { got = append(got, 2) })
		e.After(0, func() { got = append(got, 3) })
		p.Yield() // runs after 1, 2, 3
		got = append(got, 4)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2 3 4]" {
		t.Fatalf("got %v, want [1 2 3 4]", got)
	}
}

// TestHeapBeforeReadyAtSameInstant: an event scheduled earlier (lower
// seq) for time T from afar must run before an event created at T with
// a higher seq.
func TestHeapBeforeReadyAtSameInstant(t *testing.T) {
	e := NewEngine(1)
	var got []string
	// Scheduled first: sits in the heap until t=10.
	e.CallAt(10, func() { got = append(got, "heap-early") })
	e.Spawn("driver", func(p *Proc) {
		p.Sleep(10)
		// Wait: driver wakes at t=10. Its wake event has seq 3 (spawn=2),
		// so it runs after heap-early (seq 1)? The resume event was
		// scheduled by Sleep at t=0 with seq 3, so heap order at t=10 is
		// (10,1) heap-early then (10,3) driver.
		e.CallAfter(0, func() { got = append(got, "ready-late") })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[heap-early ready-late]" {
		t.Fatalf("got %v", got)
	}
}

// TestCancelReleasesEventImmediately: canceling a timer must remove the
// event (and its closure) from the engine at cancel time — pending count
// drops and the heap holds no dead weight.
func TestCancelReleasesEventImmediately(t *testing.T) {
	e := NewEngine(1)
	tms := make([]*Timer, 0, 100)
	for i := 0; i < 100; i++ {
		tms = append(tms, e.After(Time(1000+i), func() { t.Error("canceled fired") }))
	}
	if e.Pending() != 100 || len(e.heap) != 100 {
		t.Fatalf("pending=%d heap=%d, want 100", e.Pending(), len(e.heap))
	}
	for _, tm := range tms {
		tm.Cancel()
	}
	if e.Pending() != 0 {
		t.Fatalf("pending=%d after mass cancel, want 0", e.Pending())
	}
	if len(e.heap) != 0 {
		t.Fatalf("heap holds %d dead events after cancel, want 0", len(e.heap))
	}
	if got := e.Stats().TimersCanceled; got != 100 {
		t.Fatalf("TimersCanceled=%d, want 100", got)
	}
	// Double cancel stays a no-op and does not double-count.
	tms[0].Cancel()
	if got := e.Stats().TimersCanceled; got != 100 {
		t.Fatalf("TimersCanceled=%d after double cancel, want 100", got)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCancelSameInstantTimer: canceling a timer armed for the current
// instant, from inside that instant, must suppress and release it.
func TestCancelSameInstantTimer(t *testing.T) {
	e := NewEngine(1)
	var ran []string
	e.CallAt(5, func() {
		tm := e.After(0, func() { ran = append(ran, "canceled") })
		e.CallAfter(0, func() { ran = append(ran, "kept") })
		tm.Cancel()
		if e.Pending() != 1 {
			t.Errorf("pending=%d after same-instant cancel, want 1", e.Pending())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ran) != "[kept]" {
		t.Fatalf("ran %v, want [kept]", ran)
	}
}

// TestMassCancellationInterleaved cancels from the middle of a populated
// heap while scheduling continues, verifying surviving events still run
// in order — the retransmit-watchdog-disarm pattern.
func TestMassCancellationInterleaved(t *testing.T) {
	e := NewEngine(7)
	rng := rand.New(rand.NewSource(99))
	var fired []Time
	kept := 0
	var tms []*Timer
	for round := 0; round < 50; round++ {
		for i := 0; i < 20; i++ {
			d := Time(rng.Intn(500) + 1)
			if rng.Intn(2) == 0 {
				tms = append(tms, e.After(d, func() { t.Error("canceled timer fired") }))
			} else {
				kept++
				e.CallAfter(d, func() { fired = append(fired, e.Now()) })
			}
		}
		// Disarm every watchdog armed so far, in a scattered order.
		for _, i := range rng.Perm(len(tms)) {
			tms[i].Cancel()
		}
		tms = tms[:0]
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != kept {
		t.Fatalf("fired %d, want %d", len(fired), kept)
	}
	if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
		t.Fatal("surviving events fired out of order")
	}
}

// TestProcReaping: completed processes leave the proc table; live ones
// stay visible to deadlock detection and Shutdown.
func TestProcReaping(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 1000; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) { p.Sleep(Time(1 + i%7)) })
	}
	c := NewCond(e)
	e.SpawnDaemon("parked", func(p *Proc) { c.Wait(p, "forever") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(e.procs); got != 1 {
		t.Fatalf("proc table holds %d entries after run, want 1 (the daemon)", got)
	}
	st := e.Stats()
	if st.ProcsSpawned != 1001 || st.ProcsReaped != 1000 {
		t.Fatalf("spawned=%d reaped=%d, want 1001/1000", st.ProcsSpawned, st.ProcsReaped)
	}
	if e.LiveProcs() != 1 {
		t.Fatalf("live=%d, want 1", e.LiveProcs())
	}
	e.Shutdown()
	if e.live != 0 || len(e.procs) != 0 {
		t.Fatalf("after shutdown: live=%d table=%d, want 0/0", e.live, len(e.procs))
	}
}

// TestDeadlockReportAfterReaping: reaping must not hide still-blocked
// procs from the deadlock report.
func TestDeadlockReportAfterReaping(t *testing.T) {
	e := NewEngine(1)
	c := NewCond(e)
	for i := 0; i < 10; i++ {
		e.Spawn(fmt.Sprintf("done%d", i), func(p *Proc) { p.Sleep(1) })
	}
	e.Spawn("stuck", func(p *Proc) { c.Wait(p, "never") })
	err := e.Run()
	dl, ok := err.(*ErrDeadlock)
	if !ok {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	if len(dl.Blocked) != 1 || dl.Blocked[0] != "stuck (never)" {
		t.Fatalf("blocked = %v", dl.Blocked)
	}
	e.Shutdown()
}

// TestEngineStatsCounts sanity-checks the mechanical counters.
func TestEngineStatsCounts(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("a", func(p *Proc) {
		p.Sleep(5)
		p.Yield()
	})
	e.CallAfter(3, func() {})
	e.CallAfter(0, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.CallbacksRun != 2 {
		t.Fatalf("CallbacksRun=%d, want 2", st.CallbacksRun)
	}
	// spawn + sleep + yield + two callbacks.
	if st.Scheduled != 5 {
		t.Fatalf("Scheduled=%d, want 5", st.Scheduled)
	}
	// spawn wake + sleep wake + yield wake = 3 resumptions.
	if st.ProcSwitches != 3 {
		t.Fatalf("ProcSwitches=%d, want 3", st.ProcSwitches)
	}
	// spawn and both callbacks are pending at t=0; the sleep wake replaces
	// the spawn.
	if st.HeapPeak != 3 {
		t.Fatalf("HeapPeak=%d, want 3", st.HeapPeak)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending=%d at quiescence", e.Pending())
	}
}

// TestSchedulePathsAllocFree pins the engine's schedule paths at zero
// steady-state allocations: future inserts, same-instant inserts, and
// far-future AtReuse/Cancel pairs. The heap is warmed first so the assertion measures the hot path, not first-touch
// slice growth.
func TestSchedulePathsAllocFree(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 4000; i++ {
		e.CallAfter(Time(1+i%2000), fn)
	}
	for i := 0; i < 2000; i++ {
		e.CallAfter(0, fn)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}

	if avg := testing.AllocsPerRun(1000, func() { e.CallAfter(1500, fn) }); avg != 0 {
		t.Errorf("future CallAfter allocates %.2f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() { e.CallAfter(0, fn) }); avg != 0 {
		t.Errorf("same-instant CallAfter allocates %.2f/op, want 0", avg)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}

	// Far-future arm/disarm — the fleet timeout pattern: the timer goes
	// into the heap, is removed on Cancel, and AtReuse recycles it.
	var tm *Timer
	if avg := testing.AllocsPerRun(1000, func() {
		tm = e.AtReuse(e.Now()+768*Microsecond, fn, tm)
		tm.Cancel()
	}); avg != 0 {
		t.Errorf("far-future AtReuse+Cancel allocates %.2f/op, want 0", avg)
	}
	if e.Pending() != 0 {
		t.Fatalf("heap holds %d events after cancel loop", e.Pending())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRunUntilStopsMidInstantAndResumes: events scheduled at the limit
// instant by an event at that instant still run before RunUntil
// returns, and resuming later preserves order.
func TestRunUntilStopsMidInstantAndResumes(t *testing.T) {
	e := NewEngine(1)
	var got []string
	e.CallAt(10, func() {
		got = append(got, "a")
		e.CallAfter(0, func() { got = append(got, "b") })
		e.CallAfter(5, func() { got = append(got, "c") })
	})
	if err := e.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	// a and b run at t=10; c is beyond... both a and b are at t=10 ≤ 10.
	if fmt.Sprint(got) != "[a b]" {
		t.Fatalf("at limit: got %v, want [a b]", got)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[a b c]" {
		t.Fatalf("after resume: got %v", got)
	}
	if e.Now() != 15 {
		t.Fatalf("now=%v, want 15", e.Now())
	}
}
