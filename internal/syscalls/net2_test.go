package syscalls

import (
	"testing"

	"genesys/internal/errno"
	"genesys/internal/netstack"
	"genesys/internal/sim"
)

// Stream sockets through the syscall surface: socket(STREAM), bind,
// listen, connect, accept, send (sendto), recv (recvfrom) — a full
// request/response exchange between two procs of one process.
func TestStreamSyscallRoundTrip(t *testing.T) {
	ev := newEnv(t)
	var srvReady = sim.NewCond(ev.e)
	listening := false
	ev.e.Spawn("server", func(p *sim.Proc) {
		c := &Ctx{P: p, OS: ev.os, Proc: ev.pr}
		sk := &Request{NR: SYS_socket, Args: [6]uint64{uint64(netstack.Stream)}}
		Dispatch(c, sk)
		bd := &Request{NR: SYS_bind, Args: [6]uint64{uint64(sk.Ret), 7000}}
		Dispatch(c, bd)
		ls := &Request{NR: SYS_listen, Args: [6]uint64{uint64(sk.Ret), 4}}
		Dispatch(c, ls)
		if sk.Err != 0 || bd.Err != 0 || ls.Err != 0 {
			t.Errorf("setup: socket=%v bind=%v listen=%v", sk.Err, bd.Err, ls.Err)
			return
		}
		listening = true
		srvReady.Broadcast()
		ac := &Request{NR: SYS_accept, Args: [6]uint64{uint64(sk.Ret), 0}}
		Dispatch(c, ac)
		if ac.Err != 0 {
			t.Errorf("accept: %v", ac.Err)
			return
		}
		buf := make([]byte, 32)
		rc := &Request{NR: SYS_recvfrom, Args: [6]uint64{uint64(ac.Ret), 32, 0}, Buf: buf}
		Dispatch(c, rc)
		if rc.Err != 0 || string(buf[:rc.Ret]) != "ping" {
			t.Errorf("server recv = %v %q", rc.Err, buf[:rc.Ret])
			return
		}
		if int(rc.OutArgs[0]) < netstack.EphemeralMin {
			t.Errorf("remote port = %d, want ephemeral", rc.OutArgs[0])
		}
		sd := &Request{NR: SYS_sendto, Args: [6]uint64{uint64(ac.Ret), 4}, Buf: []byte("pong")}
		Dispatch(c, sd)
		if sd.Err != 0 || sd.Ret != 4 {
			t.Errorf("server send = %v ret %d", sd.Err, sd.Ret)
		}
	})
	ev.e.Spawn("client", func(p *sim.Proc) {
		c := &Ctx{P: p, OS: ev.os, Proc: ev.pr}
		for !listening {
			srvReady.Wait(p, "client waits for listener")
		}
		sk := &Request{NR: SYS_socket, Args: [6]uint64{uint64(netstack.Stream)}}
		Dispatch(c, sk)
		cn := &Request{NR: SYS_connect, Args: [6]uint64{uint64(sk.Ret), 7000}}
		Dispatch(c, cn)
		if cn.Err != 0 {
			t.Errorf("connect: %v", cn.Err)
			return
		}
		sd := &Request{NR: SYS_sendto, Args: [6]uint64{uint64(sk.Ret), 4}, Buf: []byte("ping")}
		Dispatch(c, sd)
		buf := make([]byte, 32)
		rc := &Request{NR: SYS_recvfrom, Args: [6]uint64{uint64(sk.Ret), 32, 0}, Buf: buf}
		Dispatch(c, rc)
		if rc.Err != 0 || string(buf[:rc.Ret]) != "pong" {
			t.Errorf("client recv = %v %q", rc.Err, buf[:rc.Ret])
		}
	})
	if err := ev.e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamSyscallErrors(t *testing.T) {
	ev := newEnv(t)
	bad := &Request{NR: SYS_socket, Args: [6]uint64{99}}
	ev.call(t, bad)
	if bad.Err != errno.EINVAL {
		t.Fatalf("socket(99) = %v, want EINVAL", bad.Err)
	}
	sk := &Request{NR: SYS_socket} // datagram
	ev.call(t, sk)
	ls := &Request{NR: SYS_listen, Args: [6]uint64{uint64(sk.Ret), 1}}
	ev.call(t, ls)
	if ls.Err != errno.EOPNOTSUPP {
		t.Fatalf("listen on dgram = %v, want EOPNOTSUPP", ls.Err)
	}
	st := &Request{NR: SYS_socket, Args: [6]uint64{uint64(netstack.Stream)}}
	ev.call(t, st)
	cn := &Request{NR: SYS_connect, Args: [6]uint64{uint64(st.Ret), 9999}}
	ev.call(t, cn)
	if cn.Err != errno.ECONNREFUSED {
		t.Fatalf("connect to dead port = %v, want ECONNREFUSED", cn.Err)
	}
	ac := &Request{NR: SYS_accept, Args: [6]uint64{uint64(st.Ret), 0}}
	ev.call(t, ac)
	if ac.Err != errno.EINVAL {
		t.Fatalf("accept on non-listener = %v, want EINVAL", ac.Err)
	}
}

// poll(2) over a mixed fd set: non-blocking probe, deadline timeout, and
// a blocking wait that reports exactly the readable fds.
func TestPollSyscall(t *testing.T) {
	ev := newEnv(t)
	ev.e.Spawn("poller", func(p *sim.Proc) {
		c := &Ctx{P: p, OS: ev.os, Proc: ev.pr}
		var fds []int
		for i := 0; i < 3; i++ {
			sk := &Request{NR: SYS_socket}
			Dispatch(c, sk)
			bd := &Request{NR: SYS_bind, Args: [6]uint64{uint64(sk.Ret), uint64(7100 + i)}}
			Dispatch(c, bd)
			if sk.Err != 0 || bd.Err != 0 {
				t.Errorf("setup %d: %v %v", i, sk.Err, bd.Err)
				return
			}
			fds = append(fds, int(sk.Ret))
		}
		// Non-blocking probe: nothing ready.
		pr := &Request{NR: SYS_poll, Args: [6]uint64{3, 0}, Buf: EncodePollFDs(fds)}
		Dispatch(c, pr)
		if pr.Err != 0 || pr.Ret != 0 {
			t.Errorf("probe = %v ret %d, want 0", pr.Err, pr.Ret)
		}
		// Deadline: empty set at the deadline, Ret 0, no error.
		t0 := ev.e.Now()
		pt := &Request{NR: SYS_poll, Args: [6]uint64{3, uint64(40 * sim.Microsecond)}, Buf: EncodePollFDs(fds)}
		Dispatch(c, pt)
		if pt.Err != 0 || pt.Ret != 0 || ev.e.Now()-t0 != 40*sim.Microsecond {
			t.Errorf("timed poll = %v ret %d after %v", pt.Err, pt.Ret, ev.e.Now()-t0)
		}
		// Send to fd[1]'s port from a helper socket, then block.
		src := &Request{NR: SYS_socket}
		Dispatch(c, src)
		sd := &Request{NR: SYS_sendto, Args: [6]uint64{uint64(src.Ret), 1, 0, 0, 7101}, Buf: []byte("x")}
		Dispatch(c, sd)
		pw := &Request{NR: SYS_poll, Args: [6]uint64{3, PollInfinite}, Buf: EncodePollFDs(fds)}
		Dispatch(c, pw)
		if pw.Err != 0 || pw.Ret != 1 {
			t.Errorf("blocking poll = %v ret %d, want 1", pw.Err, pw.Ret)
			return
		}
		rev := DecodePollRevents(pw.Buf, 3)
		if rev[0] != 0 || rev[1] != 1 || rev[2] != 0 {
			t.Errorf("revents = %v, want [0 1 0]", rev)
		}
	})
	if err := ev.e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPollSyscallBadArgs(t *testing.T) {
	ev := newEnv(t)
	z := &Request{NR: SYS_poll, Args: [6]uint64{0, 0}}
	ev.call(t, z)
	if z.Err != errno.EINVAL {
		t.Fatalf("poll with 0 fds = %v, want EINVAL", z.Err)
	}
	short := &Request{NR: SYS_poll, Args: [6]uint64{2, 0}, Buf: make([]byte, 4)}
	ev.call(t, short)
	if short.Err != errno.EINVAL {
		t.Fatalf("poll with short buf = %v, want EINVAL", short.Err)
	}
	// nfds whose byte size wraps (3689348814741910324*PollFDSize is 4
	// mod 2^64) or turns negative as an int must not pass the size check.
	for _, nfds := range []uint64{3689348814741910324, 1 << 63} {
		huge := &Request{NR: SYS_poll, Args: [6]uint64{nfds, 0}, Buf: make([]byte, 8)}
		ev.call(t, huge)
		if huge.Err != errno.EINVAL {
			t.Fatalf("poll with %d fds = %v, want EINVAL", nfds, huge.Err)
		}
	}
	bad := &Request{NR: SYS_poll, Args: [6]uint64{1, 0}, Buf: EncodePollFDs([]int{55})}
	ev.call(t, bad)
	if bad.Err != errno.EBADF {
		t.Fatalf("poll with bad fd = %v, want EBADF", bad.Err)
	}
}
