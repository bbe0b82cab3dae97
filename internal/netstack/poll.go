package netstack

import (
	"genesys/internal/errno"
	"genesys/internal/sim"
)

// Poller multiplexes readiness across many sockets, in the spirit of
// poll(2)/epoll(7): a GPU work-group serving hundreds of connections
// registers them once and then blocks on the poller instead of on any
// single socket. Readiness is level-triggered — Wait keeps reporting a
// socket until the condition it reports (queued datagram, buffered
// stream bytes, pending connection, EOF, close) is consumed.
//
// A Poller is not itself a file; the syscall layer (sys_poll) builds a
// transient one per call, the way poll(2) does, while long-lived server
// loops can keep one registered set the way epoll does.
type Poller struct {
	e      *sim.Engine
	stack  *Stack
	socks  []*Socket // registration order; Wait reports in this order
	cond   *sim.Cond
	closed bool

	// scratch backs the ready set returned by Wait/TryWait; the returned
	// slice is valid until the poller's next wait.
	scratch []*Socket
}

// NewPoller returns an empty poller, recycling one retired by Close when
// available — the readiness syscall builds a transient poller per call,
// and the pool keeps that off the allocator at fleet poll rates.
func (s *Stack) NewPoller() *Poller {
	if k := len(s.pollFree); k > 0 {
		pg := s.pollFree[k-1]
		s.pollFree[k-1] = nil
		s.pollFree = s.pollFree[:k-1]
		pg.closed = false
		return pg
	}
	return &Poller{e: s.e, stack: s, cond: sim.NewCond(s.e)}
}

// Readable reports level-triggered readiness: a closed socket is always
// readable (so blocked pollers observe EBADF promptly), a datagram
// socket with queued data, a listener with pending connections, or a
// stream socket with buffered bytes, EOF, or a reset to deliver.
func (sk *Socket) Readable() bool {
	if !sk.open {
		return true
	}
	if sk.typ == Dgram {
		return sk.queued() > 0
	}
	if sk.listening {
		return len(sk.backlog) > 0
	}
	return sk.buffered() > 0 || sk.peerClosed || sk.reset
}

// notifyWatchers wakes every poller multiplexing this socket, in
// registration order (deterministic).
func (sk *Socket) notifyWatchers() {
	for _, pg := range sk.watchers {
		pg.cond.Broadcast()
	}
}

// Add registers a socket. Adding the same socket twice is a no-op.
func (pg *Poller) Add(sk *Socket) error {
	if pg.closed {
		return errno.EBADF
	}
	if sk == nil || !sk.open {
		return errno.EBADF
	}
	for _, s := range pg.socks {
		if s == sk {
			return nil
		}
	}
	pg.socks = append(pg.socks, sk)
	sk.watchers = append(sk.watchers, pg)
	return nil
}

// Remove unregisters a socket; unknown sockets are a no-op.
func (pg *Poller) Remove(sk *Socket) {
	for i, s := range pg.socks {
		if s == sk {
			pg.socks = append(pg.socks[:i], pg.socks[i+1:]...)
			break
		}
	}
	for i, w := range sk.watchers {
		if w == pg {
			sk.watchers = append(sk.watchers[:i], sk.watchers[i+1:]...)
			break
		}
	}
}

// Len reports the number of registered sockets.
func (pg *Poller) Len() int { return len(pg.socks) }

// ready appends every currently-readable socket to dst (registration
// order) and returns the result.
func (pg *Poller) ready(dst []*Socket) []*Socket {
	for _, sk := range pg.socks {
		if sk.Readable() {
			dst = append(dst, sk)
		}
	}
	return dst
}

// Wait blocks until at least one registered socket is readable or the
// timeout elapses, and returns the readable sockets in registration
// order. d <= 0 blocks indefinitely; a deadline with nothing readable
// returns (nil, EAGAIN). Closing the poller mid-wait returns EBADF;
// waiting on an empty set is EINVAL (it could never become ready).
func (pg *Poller) Wait(p *sim.Proc, d sim.Time) ([]*Socket, error) {
	if pg.closed {
		return nil, errno.EBADF
	}
	if len(pg.socks) == 0 {
		return nil, errno.EINVAL
	}
	var deadline sim.Time
	if d > 0 {
		deadline = pg.e.Deadline(d)
	}
	for {
		if pg.closed {
			return nil, errno.EBADF
		}
		if out := pg.ready(pg.scratch[:0]); len(out) > 0 {
			pg.scratch = out
			return out, nil
		}
		if deadline == 0 {
			pg.cond.Wait(p, "poll")
			continue
		}
		if pg.cond.WaitDeadline(p, "poll (timed)", deadline) {
			return nil, errno.EAGAIN
		}
	}
}

// TryWait returns the currently-readable sockets without blocking. The
// returned slice is valid until the poller's next wait.
func (pg *Poller) TryWait() []*Socket {
	if pg.closed || len(pg.socks) == 0 {
		return nil
	}
	out := pg.ready(pg.scratch[:0])
	pg.scratch = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// Close unregisters every socket and wakes blocked waiters with EBADF.
// A closed poller must not be used again: with no waiters left it is
// recycled by the owning stack's next NewPoller.
func (pg *Poller) Close() {
	if pg.closed {
		return
	}
	pg.closed = true
	for _, sk := range pg.socks {
		for i, w := range sk.watchers {
			if w == pg {
				sk.watchers = append(sk.watchers[:i], sk.watchers[i+1:]...)
				break
			}
		}
	}
	for i := range pg.socks {
		pg.socks[i] = nil
	}
	pg.socks = pg.socks[:0]
	for i := range pg.scratch {
		pg.scratch[i] = nil
	}
	pg.scratch = pg.scratch[:0]
	pg.cond.Broadcast()
	// Recycle only once nothing can still observe this poller: a waiter
	// woken by the broadcast checks pg.closed when it resumes, and a
	// recycled (reopened) poller would break that check.
	if pg.stack != nil && pg.cond.Waiters() == 0 {
		pg.stack.pollFree = append(pg.stack.pollFree, pg)
	}
}
