package syscalls

import (
	"strings"
	"testing"

	"genesys/internal/errno"
	"genesys/internal/fs"
	"genesys/internal/netstack"
)

// TestBadDescriptorPaths drives every fd-taking syscall with a bad
// descriptor and asserts EBADF comes back through the dispatch layer.
func TestBadDescriptorPaths(t *testing.T) {
	ev := newEnv(t)
	const badFD = 77
	for _, nr := range []int{SYS_write, SYS_read, SYS_pread64, SYS_pwrite64,
		SYS_lseek, SYS_ioctl, SYS_close, SYS_dup, SYS_fsync, SYS_ftruncate,
		SYS_fstat, SYS_bind, SYS_sendto, SYS_recvfrom} {
		r := &Request{NR: nr, Args: [6]uint64{badFD, 4}, Buf: make([]byte, 32)}
		ev.call(t, r)
		if r.Err != errno.EBADF || r.Ret != -1 {
			t.Fatalf("syscall %d with bad fd = %v (ret %d), want EBADF/-1",
				nr, r.Err, r.Ret)
		}
	}
}

// TestHugeCountClampsToBuffer drives every call that takes a byte count
// in Args[1] with counts whose top bit is set. Each count clamps to the
// call's buffer; none may turn negative and panic the kernel worker.
func TestHugeCountClampsToBuffer(t *testing.T) {
	for _, count := range []uint64{1 << 63, ^uint64(0)} {
		ev := newEnv(t)
		open := func(flags uint64) uint64 {
			return uint64(ev.call(t, &Request{NR: SYS_open, Args: [6]uint64{flags}, Buf: []byte("/tmp/big")}).Ret)
		}
		socket := func(typ uint64) uint64 {
			return uint64(ev.call(t, &Request{NR: SYS_socket, Args: [6]uint64{typ}}).Ret)
		}
		wr, rd := open(fs.O_CREAT|fs.O_WRONLY), open(fs.O_RDONLY)
		ls, cl := socket(uint64(netstack.Stream)), socket(uint64(netstack.Stream))
		ev.call(t, &Request{NR: SYS_bind, Args: [6]uint64{ls, 7200}})
		ev.call(t, &Request{NR: SYS_listen, Args: [6]uint64{ls, 4}})
		ev.call(t, &Request{NR: SYS_connect, Args: [6]uint64{cl, 7200}})
		srv := uint64(ev.call(t, &Request{NR: SYS_accept, Args: [6]uint64{ls, 0}}).Ret)
		dst, src := socket(0), socket(0)
		ev.call(t, &Request{NR: SYS_bind, Args: [6]uint64{dst, 7201}})

		for _, tc := range []struct {
			name string
			nr   int
			args [6]uint64
			buf  []byte
			want int64
		}{
			{"write", SYS_write, [6]uint64{wr, count}, []byte("abcd"), 4},
			{"pwrite", SYS_pwrite64, [6]uint64{wr, count, 0}, []byte("xy"), 2},
			{"read", SYS_read, [6]uint64{rd, count}, make([]byte, 8), 4},
			{"pread", SYS_pread64, [6]uint64{rd, count, 1}, make([]byte, 8), 3},
			{"send", SYS_sendto, [6]uint64{cl, count}, []byte("ping"), 4},
			{"recv", SYS_recvfrom, [6]uint64{srv, count, 0}, make([]byte, 8), 4},
			{"sendto", SYS_sendto, [6]uint64{src, count, 0, 0, 7201}, []byte("dg"), 2},
			{"recvfrom", SYS_recvfrom, [6]uint64{dst, count, 0}, make([]byte, 8), 2},
		} {
			r := ev.call(t, &Request{NR: tc.nr, Args: tc.args, Buf: tc.buf})
			if r.Err != errno.OK || r.Ret != tc.want {
				t.Fatalf("%s with count %#x = %v (ret %d), want ret %d",
					tc.name, count, r.Err, r.Ret, tc.want)
			}
		}
	}
}

func TestWriteOnReadOnlyAndViceVersa(t *testing.T) {
	ev := newEnv(t)
	op := &Request{NR: SYS_open, Args: [6]uint64{fs.O_CREAT | fs.O_WRONLY}, Buf: []byte("/tmp/ro")}
	ev.call(t, op)
	wr := &Request{NR: SYS_read, Args: [6]uint64{uint64(op.Ret), 4}, Buf: make([]byte, 4)}
	ev.call(t, wr)
	if wr.Err != errno.EBADF {
		t.Fatalf("read on O_WRONLY = %v", wr.Err)
	}
	op2 := &Request{NR: SYS_open, Args: [6]uint64{fs.O_RDONLY}, Buf: []byte("/tmp/ro")}
	ev.call(t, op2)
	w2 := &Request{NR: SYS_pwrite64, Args: [6]uint64{uint64(op2.Ret), 1, 0}, Buf: []byte("x")}
	ev.call(t, w2)
	if w2.Err != errno.EBADF {
		t.Fatalf("pwrite on O_RDONLY = %v", w2.Err)
	}
}

func TestMunmapAndMadviseErrors(t *testing.T) {
	ev := newEnv(t)
	mu := &Request{NR: SYS_munmap, Args: [6]uint64{0xdeadbeef, 4096}}
	ev.call(t, mu)
	if mu.Err != errno.EINVAL {
		t.Fatalf("munmap of unmapped = %v", mu.Err)
	}
	ma := &Request{NR: SYS_madvise, Args: [6]uint64{0xdeadbeef, 4096, 4}}
	ev.call(t, ma)
	if ma.Err != errno.EFAULT {
		t.Fatalf("madvise of unmapped = %v", ma.Err)
	}
	ru := &Request{NR: SYS_getrusage, Buf: make([]byte, 3)}
	ev.call(t, ru)
	if ru.Err != errno.EINVAL {
		t.Fatalf("short getrusage buffer = %v", ru.Err)
	}
}

func TestLseekAndIoctlErrors(t *testing.T) {
	ev := newEnv(t)
	op := &Request{NR: SYS_open, Args: [6]uint64{fs.O_CREAT | fs.O_RDWR}, Buf: []byte("/tmp/f")}
	ev.call(t, op)
	bad := &Request{NR: SYS_lseek, Args: [6]uint64{uint64(op.Ret), 0, 42}}
	ev.call(t, bad)
	if bad.Err != errno.EINVAL {
		t.Fatalf("bad whence = %v", bad.Err)
	}
	io := &Request{NR: SYS_ioctl, Args: [6]uint64{uint64(op.Ret), 1}}
	ev.call(t, io)
	if io.Err != errno.ENOTTY {
		t.Fatalf("ioctl on regular file = %v", io.Err)
	}
}

func TestBindErrors(t *testing.T) {
	ev := newEnv(t)
	s1 := &Request{NR: SYS_socket}
	s2 := &Request{NR: SYS_socket}
	ev.callSeq(t, s1, s2)
	b1 := &Request{NR: SYS_bind, Args: [6]uint64{uint64(s1.Ret), 5555}}
	b2 := &Request{NR: SYS_bind, Args: [6]uint64{uint64(s2.Ret), 5555}}
	ev.callSeq(t, b1, b2)
	if b1.Err != errno.OK || b2.Err != errno.EADDRINUSE {
		t.Fatalf("bind results: %v, %v", b1.Err, b2.Err)
	}
	nb := &Request{NR: SYS_bind, Args: [6]uint64{1, 5556}} // stdout is not a socket
	ev.call(t, nb)
	if nb.Err != errno.ENOTSOCK {
		t.Fatalf("bind on non-socket = %v", nb.Err)
	}
}

func TestClassificationSummaryRenders(t *testing.T) {
	out := ClassificationSummary()
	for _, want := range []string{"333 total", "readily-implementable",
		"79.0%", "implemented in this GENESYS"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestUnameAndFtruncateErrors(t *testing.T) {
	ev := newEnv(t)
	un := &Request{NR: SYS_uname, Buf: make([]byte, 4)}
	ev.call(t, un)
	if un.Err != errno.EINVAL {
		t.Fatalf("short uname buffer = %v", un.Err)
	}
	// ftruncate on a socket (no Node).
	sk := &Request{NR: SYS_socket}
	ev.call(t, sk)
	tr := &Request{NR: SYS_ftruncate, Args: [6]uint64{uint64(sk.Ret), 0}}
	ev.call(t, tr)
	if tr.Err != errno.EINVAL {
		t.Fatalf("ftruncate on socket = %v", tr.Err)
	}
}
