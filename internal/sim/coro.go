//go:build go1.23

// The module's go line stays at 1.22 (see go.mod), so the build
// constraint above is what lets this file use the iter package.

package sim

import "iter"

// startCoro makes p.run(fn) the process's coroutine. iter.Pull switches
// between the engine and the process directly, without a trip through
// the goroutine scheduler: Engine.resume runs the body until it calls
// p.yield (Proc.switchToEngine) or returns. A panic escaping the body
// would propagate out of p.next into the engine loop; run recovers
// every one.
//
// The stop function is never needed: a process ends only by returning
// or, under Shutdown, by unwinding through killSignal, and either way
// the coroutine completes on its own.
func (p *Proc) startCoro(fn func(*Proc)) {
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		p.run(fn)
	})
}
