package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// waitGoroutines polls until runtime.NumGoroutine() drops to want,
// giving exiting goroutines a moment to be accounted for, and reports
// the last count seen.
func waitGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestShutdownLeaksNoGoroutines: every process is backed by a coroutine,
// and Shutdown must end each one however it was left — blocked forever,
// suspended mid-Sleep at a RunUntil limit, or spawned and never started.
func TestShutdownLeaksNoGoroutines(t *testing.T) {
	cases := []struct {
		name  string
		build func(e *Engine)
	}{
		{"daemons blocked on a Cond", func(e *Engine) {
			c := NewCond(e)
			for i := 0; i < 8; i++ {
				e.SpawnDaemon("d", func(p *Proc) { c.Wait(p, "forever") })
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		}},
		{"proc mid-Sleep after RunUntil", func(e *Engine) {
			for i := 0; i < 8; i++ {
				e.Spawn("sleeper", func(p *Proc) { p.Sleep(Second) })
			}
			if err := e.RunUntil(Millisecond); err != nil {
				t.Fatal(err)
			}
		}},
		{"proc spawned but never started", func(e *Engine) {
			for i := 0; i < 8; i++ {
				e.Spawn("unstarted", func(p *Proc) { t.Error("killed proc ran its body") })
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := NewEngine(1)
			tc.build(e)
			if e.LiveProcs() != 8 {
				t.Fatalf("live procs before shutdown = %d, want 8", e.LiveProcs())
			}
			e.Shutdown()
			if e.LiveProcs() != 0 {
				t.Fatalf("live procs after shutdown = %d", e.LiveProcs())
			}
			if n := waitGoroutines(base); n > base {
				t.Fatalf("goroutines after shutdown = %d, baseline %d", n, base)
			}
		})
	}
}

// TestNestedProcPanicIsFatal: a panic in a proc spawned by a proc that a
// callback spawned surfaces as Run's error — it never escapes the
// coroutine switch — and the error is sticky across later Run calls.
func TestNestedProcPanicIsFatal(t *testing.T) {
	e := NewEngine(1)
	e.CallAt(5, func() {
		e.Spawn("outer", func(p *Proc) {
			p.Sleep(1)
			e.Spawn("inner", func(c *Proc) {
				c.Sleep(1)
				panic("kaboom")
			})
			p.Sleep(10)
		})
	})
	const want = `sim: proc "inner" panicked: kaboom`
	for i := 0; i < 3; i++ {
		err := e.Run()
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("Run #%d = %v, want prefix %q", i+1, err, want)
		}
	}
	if e.Now() != 7 {
		t.Fatalf("now = %v, want 7 (the engine must stop at the panic)", e.Now())
	}
	e.Shutdown()
	if e.LiveProcs() != 0 {
		t.Fatalf("live procs after shutdown = %d", e.LiveProcs())
	}
}

// TestSpawnRunAllocs pins the allocation cost of a whole process
// lifetime — Spawn, first resumption, completion and reaping. The
// coroutine (iter.Pull's state and closures) accounts for most of it.
func TestSpawnRunAllocs(t *testing.T) {
	e := NewEngine(1)
	fn := func(p *Proc) {}
	e.Spawn("warm", fn)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	const want = 13
	avg := testing.AllocsPerRun(1000, func() {
		e.Spawn("w", fn)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != want {
		t.Errorf("Spawn+Run allocates %.2f/op, want %d", avg, want)
	}
}
