package syscalls

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"genesys/internal/errno"
	"genesys/internal/fs"
	"genesys/internal/netstack"
	"genesys/internal/sim"
)

// TestNanosleepBounds: a duration with the top bit set is EINVAL, and one
// whose wake time overflows int64 sleeps until sim.MaxTime instead of
// scheduling into the past.
func TestNanosleepBounds(t *testing.T) {
	ev := newEnv(t)
	neg := ev.call(t, &Request{NR: SYS_nanosleep, Args: [6]uint64{1 << 63}})
	if neg.Err != errno.EINVAL || neg.Ret != -1 {
		t.Fatalf("nanosleep(1<<63) = %v (ret %d), want EINVAL", neg.Err, neg.Ret)
	}
	if ev.e.Now() != 0 {
		t.Fatalf("refused nanosleep advanced time to %v", ev.e.Now())
	}
	long := &Request{NR: SYS_nanosleep, Args: [6]uint64{math.MaxInt64}}
	ev.e.Spawn("sleeper", func(p *sim.Proc) {
		p.Sleep(5) // now+d overflows only once now > 0
		Dispatch(&Ctx{P: p, OS: ev.os, Proc: ev.pr}, long)
	})
	if err := ev.e.Run(); err != nil {
		t.Fatal(err)
	}
	if long.Err != errno.OK || ev.e.Now() != sim.MaxTime {
		t.Fatalf("nanosleep(MaxInt64) at 5ns = %v, woke at %v, want OK at MaxTime",
			long.Err, ev.e.Now())
	}
}

// TestHugeTimeoutsWait: accept, datagram recvfrom, stream recv and poll
// with a timeout whose deadline overflows int64 must wait for their peer
// (the deadline saturates at sim.MaxTime) rather than expire at once.
func TestHugeTimeoutsWait(t *testing.T) {
	ev := newEnv(t)
	socket := func(typ netstack.SockType) uint64 {
		return uint64(ev.call(t, &Request{NR: SYS_socket, Args: [6]uint64{uint64(typ)}}).Ret)
	}
	ls, cl := socket(netstack.Stream), socket(netstack.Stream)
	ev.call(t, &Request{NR: SYS_bind, Args: [6]uint64{ls, 7300}})
	ev.call(t, &Request{NR: SYS_listen, Args: [6]uint64{ls, 4}})
	dst, polled, src := socket(netstack.Dgram), socket(netstack.Dgram), socket(netstack.Dgram)
	ev.call(t, &Request{NR: SYS_bind, Args: [6]uint64{dst, 7301}})
	ev.call(t, &Request{NR: SYS_bind, Args: [6]uint64{polled, 7302}})

	const forever = math.MaxInt64
	accept := &Request{NR: SYS_accept, Args: [6]uint64{ls, forever}}
	recv := &Request{NR: SYS_recvfrom, Args: [6]uint64{0, 8, forever}, Buf: make([]byte, 8)}
	udp := &Request{NR: SYS_recvfrom, Args: [6]uint64{dst, 8, forever}, Buf: make([]byte, 8)}
	poll := &Request{NR: SYS_poll, Args: [6]uint64{1, forever}, Buf: EncodePollFDs([]int{int(polled)})}
	spawn := func(name string, body func(c *Ctx)) {
		ev.e.Spawn(name, func(p *sim.Proc) {
			p.Sleep(5) // now+d overflows only once now > 0
			body(&Ctx{P: p, OS: ev.os, Proc: ev.pr})
		})
	}
	spawn("acceptor", func(c *Ctx) {
		Dispatch(c, accept)
		recv.Args[0] = uint64(accept.Ret)
		Dispatch(c, recv)
	})
	spawn("udp", func(c *Ctx) { Dispatch(c, udp) })
	spawn("poller", func(c *Ctx) { Dispatch(c, poll) })
	spawn("peer", func(c *Ctx) {
		c.P.Sleep(sim.Millisecond)
		Dispatch(c, &Request{NR: SYS_connect, Args: [6]uint64{cl, 7300}})
		Dispatch(c, &Request{NR: SYS_sendto, Args: [6]uint64{src, 2, 0, 0, 7301}, Buf: []byte("dg")})
		Dispatch(c, &Request{NR: SYS_sendto, Args: [6]uint64{src, 1, 0, 0, 7302}, Buf: []byte("p")})
		c.P.Sleep(sim.Millisecond)
		Dispatch(c, &Request{NR: SYS_sendto, Args: [6]uint64{cl, 2}, Buf: []byte("hi")})
	})
	if err := ev.e.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		r    *Request
		ok   bool
	}{
		{"accept", accept, accept.Ret >= 0},
		{"stream recv", recv, recv.Ret == 2},
		{"datagram recvfrom", udp, udp.Ret == 2},
		{"poll", poll, poll.Ret == 1},
	} {
		if tc.r.Err != errno.OK || !tc.ok {
			t.Errorf("%s with timeout MaxInt64 = %v (ret %d), want it to wait for the peer",
				tc.name, tc.r.Err, tc.r.Ret)
		}
	}
}

// boundaryArgs are the argument values the boundary sweep draws from: 0,
// 1, the 32-bit edges and the int64/uint64 edges.
var boundaryArgs = []uint64{0, 1, 1 << 31, 1 << 32, 1 << 62, 1 << 63, math.MaxInt64, ^uint64(0)}

// boundaryAllocCap bounds the host memory one boundary call may allocate.
// The largest legitimate cost is the per-page state of a 4 GiB anonymous
// mapping (2 MiB).
const boundaryAllocCap = 32 << 20

// TestBoundaryArgsEverySyscall runs every implemented syscall with each
// boundary value in each argument position (the others 0), in all six
// positions at once, and in a seeded sample of mixed tuples, against no
// buffer and a small buffer holding a path. Each call runs on its own
// daemon proc under a bounded RunUntil and must end in a result or an
// errno, or stay blocked (no peer to wake it is allowed). It must not
// panic, and must not allocate more than boundaryAllocCap on the host.
func TestBoundaryArgsEverySyscall(t *testing.T) {
	nrs := make([]int, 0, len(table))
	for nr := range table {
		nrs = append(nrs, nr)
	}
	sort.Ints(nrs)

	var tuples [][6]uint64
	for _, v := range boundaryArgs {
		tuples = append(tuples, [6]uint64{v, v, v, v, v, v})
		for i := range 6 {
			var a [6]uint64
			a[i] = v
			tuples = append(tuples, a)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for range 64 {
		var a [6]uint64
		for i := range a {
			a[i] = boundaryArgs[rng.Intn(len(boundaryArgs))]
		}
		tuples = append(tuples, a)
	}
	bufs := []func() []byte{
		func() []byte { return nil },
		func() []byte { return append([]byte("/tmp/bnd\x00"), make([]byte, 55)...) },
	}

	for _, nr := range nrs {
		ev := newEnv(t)
		// fd 0 is a tmpfs file, so the fd-taking calls reach a real file
		// system; fd 1 stays the console.
		ev.pr.FDs.InstallAt(0, fs.NewFile(fs.NewTmpfs().NewFile(), fs.O_RDWR, "/tmp/fd0"))
		for _, args := range tuples {
			for _, buf := range bufs {
				r := &Request{NR: nr, Args: args, Buf: buf()}
				done := false
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				ev.e.SpawnDaemon("boundary", func(p *sim.Proc) {
					Dispatch(&Ctx{P: p, OS: ev.os, Proc: ev.pr}, r)
					done = true
				})
				if err := ev.e.RunUntil(ev.e.Now() + sim.Second); err != nil {
					t.Fatalf("nr %d args %#x buf %d: %v", nr, args, len(r.Buf), err)
				}
				runtime.ReadMemStats(&after)
				if d := after.TotalAlloc - before.TotalAlloc; d > boundaryAllocCap {
					t.Fatalf("nr %d args %#x buf %d: allocated %d bytes, cap %d",
						nr, args, len(r.Buf), d, boundaryAllocCap)
				}
				if done && r.Err != errno.OK && r.Ret != -1 {
					t.Fatalf("nr %d args %#x: err %v with ret %d, want -1", nr, args, r.Err, r.Ret)
				}
			}
		}
	}
}

// TestBoundaryFileGrowth drives write-side calls at offsets and sizes
// past fs.MaxFileSize through the dispatch layer: each fails with EFBIG
// instead of growing the file.
func TestBoundaryFileGrowth(t *testing.T) {
	ev := newEnv(t)
	fd := uint64(ev.call(t, &Request{NR: SYS_open, Args: [6]uint64{fs.O_CREAT | fs.O_RDWR}, Buf: []byte("/tmp/g")}).Ret)
	for _, off := range []uint64{1 << 62, math.MaxInt64 - 1, 1 << 31} {
		r := ev.call(t, &Request{NR: SYS_pwrite64, Args: [6]uint64{fd, 2, off}, Buf: []byte("xy")})
		if r.Err != errno.EFBIG {
			t.Errorf("pwrite at %#x = %v (ret %d), want EFBIG", off, r.Err, r.Ret)
		}
		r = ev.call(t, &Request{NR: SYS_ftruncate, Args: [6]uint64{fd, off}})
		if r.Err != errno.EFBIG {
			t.Errorf("ftruncate to %#x = %v, want EFBIG", off, r.Err)
		}
	}
	anon := ^uint64(0) // fd -1: an anonymous mapping
	for _, length := range []uint64{1 << 62, math.MaxInt64} {
		r := ev.call(t, &Request{NR: SYS_mmap, Args: [6]uint64{0, length, 0, 0, anon}})
		if r.Err != errno.ENOMEM {
			t.Errorf("mmap of %#x bytes = %v, want ENOMEM", length, r.Err)
		}
	}
}
