package syscalls

import (
	"encoding/binary"

	"genesys/internal/errno"
	"genesys/internal/fs"
	"genesys/internal/netstack"
	"genesys/internal/sim"
)

// Stream-socket and readiness system calls (Linux x86-64 numbers): the
// connection-oriented half of the networking surface, plus poll(2) so a
// GPU work-group can multiplex hundreds of fleet connections through a
// single blocking slot instead of parking one wavefront per socket.
const (
	SYS_poll    = 7
	SYS_connect = 42
	SYS_accept  = 43
	SYS_listen  = 50
)

func init() {
	table[SYS_poll] = sysPoll
	table[SYS_connect] = sysConnect
	table[SYS_accept] = sysAccept
	table[SYS_listen] = sysListen
}

// PollInfinite in the timeout argument means "block until ready".
// (A literal 0 is a non-blocking readiness probe, as with poll(2).)
const PollInfinite = ^uint64(0)

// sysConnect: Args = [fd, dstPort]. Blocks for the handshake round
// trip; ECONNREFUSED if nobody is listening or the backlog is full.
func sysConnect(c *Ctx, r *Request) {
	sock, err := socketOf(c, int(int64(r.Args[0])))
	if err != nil {
		fail(r, err)
		return
	}
	t0 := c.OS.E.Now()
	if err := sock.Connect(c.P, int(r.Args[1])); err != nil {
		fail(r, err)
		return
	}
	netSpan(c, "connect", r, sock.Port(), t0)
}

// sysListen: Args = [fd, backlog].
func sysListen(c *Ctx, r *Request) {
	sock, err := socketOf(c, int(int64(r.Args[0])))
	if err != nil {
		fail(r, err)
		return
	}
	if err := sock.Listen(int(r.Args[1])); err != nil {
		fail(r, err)
	}
}

// sysAccept: Args = [fd, timeout_ns] (0 = block indefinitely). Returns
// the new connection's fd; the remote port lands in OutArgs[0].
func sysAccept(c *Ctx, r *Request) {
	sock, err := socketOf(c, int(int64(r.Args[0])))
	if err != nil {
		fail(r, err)
		return
	}
	t0 := c.OS.E.Now()
	conn, err := sock.AcceptTimeout(c.P, sim.Time(r.Args[1]))
	if err != nil {
		fail(r, err)
		return
	}
	f := &fs.File{Special: conn, Path: "socket:[tcp]"}
	fd, err := c.Proc.FDs.Install(f)
	if err != nil {
		conn.Close()
		fail(r, err)
		return
	}
	netSpan(c, "accept", r, conn.Port(), t0)
	r.Ret = int64(fd)
	r.OutArgs[0] = uint64(conn.RemotePort())
}

// PollFDSize is the per-fd size of the poll request encoding: a u32
// fd in the first count*4 bytes of Buf, one revents byte each after.
const PollFDSize = 5

// EncodePollFDs lays out the poll(2) request buffer for the given fds:
// count little-endian u32 fds followed by count revents bytes (zeroed).
func EncodePollFDs(fds []int) []byte {
	return EncodePollFDsInto(nil, fds)
}

// EncodePollFDsInto is EncodePollFDs writing into buf's storage when it
// is large enough (allocating otherwise), for callers that poll in a
// loop and reuse one scratch buffer.
func EncodePollFDsInto(buf []byte, fds []int) []byte {
	n := len(fds) * PollFDSize
	if cap(buf) >= n {
		buf = buf[:n]
	} else {
		buf = make([]byte, n)
	}
	for i, fd := range fds {
		binary.LittleEndian.PutUint32(buf[i*4:], uint32(fd))
	}
	for i := len(fds) * 4; i < n; i++ {
		buf[i] = 0
	}
	return buf
}

// DecodePollRevents returns the revents bytes from a poll reply buffer
// (1 = readable, 0 = not ready).
func DecodePollRevents(buf []byte, count int) []byte {
	return buf[count*4 : count*4+count]
}

// sysPoll: Args = [nfds, timeout_ns]; Buf holds nfds u32 fds followed by
// nfds revents bytes (see EncodePollFDs). A timeout of 0 is a
// non-blocking probe, PollInfinite blocks until readiness, anything else
// is a deadline that fails the wait into Ret = 0 (no EAGAIN — poll(2)
// reports an empty set on timeout). Ret counts the ready fds and each
// ready fd's revents byte is set to 1, level-triggered.
func sysPoll(c *Ctx, r *Request) {
	count := int(r.Args[0])
	if count <= 0 || count > len(r.Buf)/PollFDSize {
		fail(r, errno.EINVAL)
		return
	}
	socks := make([]*netstack.Socket, count)
	for i := 0; i < count; i++ {
		fd := int(int32(binary.LittleEndian.Uint32(r.Buf[i*4:])))
		sock, err := socketOf(c, fd)
		if err != nil {
			fail(r, err)
			return
		}
		socks[i] = sock
	}
	t0 := c.OS.E.Now()
	revents := r.Buf[count*4 : count*4+count]
	for i := range revents {
		revents[i] = 0
	}
	// A transient poller per call, the way poll(2) rebuilds its wait
	// queue each time; Close unhooks the watcher links.
	pg := c.OS.Net.NewPoller()
	defer pg.Close()
	for _, sock := range socks {
		if err := pg.Add(sock); err != nil {
			fail(r, err)
			return
		}
	}
	var ready []*netstack.Socket
	switch r.Args[1] {
	case 0:
		ready = pg.TryWait()
	case PollInfinite:
		var err error
		ready, err = pg.Wait(c.P, 0)
		if err != nil {
			fail(r, err)
			return
		}
	default:
		var err error
		ready, err = pg.Wait(c.P, sim.Time(r.Args[1]))
		if err != nil && err != errno.EAGAIN {
			fail(r, err)
			return
		}
	}
	for _, rs := range ready {
		for i, sock := range socks {
			if sock == rs {
				revents[i] = 1
			}
		}
	}
	netSpan(c, "poll", r, len(ready), t0)
	r.Ret = int64(len(ready))
}
