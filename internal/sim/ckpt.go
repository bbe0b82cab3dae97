package sim

import (
	"fmt"
	"sort"
	"strings"
)

// CheckpointState renders the engine's complete schedulable state as a
// deterministic byte string: the virtual clock, the event sequence
// counter, the mechanical stats, every pending event (heap and ready
// queue merged, in (time, sequence) order) and every live process.
//
// Closures and goroutine stacks cannot be serialized from Go, so the
// encoding describes each pending event by its instant, sequence number
// and kind (the resuming process's name, or "callback"); it is a state
// *fingerprint*, not a resumable image. Restore (internal/ckpt) instead
// rebuilds the machine from the snapshot's recipe and deterministically
// re-executes to the cut instant — because the engine is bit-identical
// for a fixed seed, the re-executed engine reaches exactly this state,
// which the restore path proves by re-capturing this section and
// comparing bytes. See DESIGN.md §10.
//
// CheckpointState performs no scheduling, consumes no randomness and
// allocates only the returned buffer, so capturing a checkpoint cannot
// perturb the run it captures.
func (e *Engine) CheckpointState() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "engine v2\nnow %d\nseq %d\n", int64(e.now), e.seq)
	st := e.stats
	fmt.Fprintf(&b, "stats scheduled=%d ready_fast=%d callbacks=%d proc_switches=%d timers_canceled=%d spawned=%d reaped=%d heap_peak=%d ready_peak=%d\n",
		st.Scheduled, st.ReadyFast, st.CallbacksRun, st.ProcSwitches,
		st.TimersCanceled, st.ProcsSpawned, st.ProcsReaped, st.HeapPeak,
		st.ReadyPeak)
	fmt.Fprintf(&b, "live %d user %d\n", e.live, e.liveUser)

	// Pending events, in the global (t, seq) execution order. The heap's
	// internal layout is itself deterministic for a fixed history, but
	// sorting makes the section meaningful to read and independent of
	// sift implementation details.
	evs := make([]event, 0, len(e.heap)+len(e.ready)-e.readyHead)
	evs = append(evs, e.heap...)
	for i := e.readyHead; i < len(e.ready); i++ {
		ev := e.ready[i]
		if ev.p == nil && ev.fn == nil {
			continue // canceled hole
		}
		evs = append(evs, ev)
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return evs[i].seq < evs[j].seq
	})
	fmt.Fprintf(&b, "pending %d\n", len(evs))
	for _, ev := range evs {
		kind := "callback"
		if ev.p != nil {
			kind = "proc:" + ev.p.name
		} else if ev.tmr != nil {
			kind = "timer"
		}
		fmt.Fprintf(&b, "event t=%d seq=%d %s\n", int64(ev.t), ev.seq, kind)
	}

	// Live processes in table order (spawn/reap order is deterministic).
	fmt.Fprintf(&b, "procs %d\n", len(e.procs))
	for _, p := range e.procs {
		fmt.Fprintf(&b, "proc %s state=%d daemon=%v reason=%q\n",
			p.name, p.state, p.daemon, p.reason)
	}
	return []byte(b.String())
}
