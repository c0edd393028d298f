package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/abi"
	"repro/internal/browser"
)

// Tests of the one trap-keyed dispatch table: hostile heap ranges fail
// with EFAULT, batched and lone path lookups agree, and every trap gives
// the same answer whichever transport carries it.

// newTrapWorld is a ringWorld with a small tree (/f, /ln -> /f, /d with
// two entries, empty /d2) and a task ready for process calls.
func newTrapWorld(t testing.TB) *ringWorld {
	w := newRingWorld(t)
	w.task.children = map[int]*Task{}
	w.task.sigActions = map[int]sigAction{}
	var errs []abi.Errno
	collect := func(err abi.Errno) { errs = append(errs, err) }
	w.fsys.WriteFile("/f", []byte("hello world"), 0o644, collect)
	w.fsys.Symlink("/f", "/ln", collect)
	w.fsys.Mkdir("/d", 0o755, collect)
	w.fsys.WriteFile("/d/a", []byte("a"), 0o644, collect)
	w.fsys.WriteFile("/d/b", []byte("bb"), 0o644, collect)
	w.fsys.Mkdir("/d2", 0o755, collect)
	for _, err := range errs {
		if err != abi.OK {
			t.Fatalf("staging the tree: %v", err)
		}
	}
	return w
}

// dispatch runs one call inside a simulator event until it completes or
// the simulation quiesces (exit never completes). It reports whether
// the call completed.
func (w *ringWorld) dispatch(trap int, c call, done *bool) bool {
	w.sim.Post(w.sys.Main.Sched(), w.sim.Now(), func() { w.k.dispatchCall(w.task, trap, c) })
	return w.sim.RunUntil(func() bool { return *done })
}

// heapDispatch runs a heap-backed call with raw integer arguments.
func (w *ringWorld) heapDispatch(trap int, args ...int64) (ret int64, err abi.Errno, ok bool) {
	var done bool
	c := &heapCall{t: w.task, args: args, fin: func(r int64, e abi.Errno) { ret, err, done = r, e, true }}
	return ret, err, w.dispatch(trap, c, &done)
}

// Argument markers for transport-neutral call specs. Plain values are
// inputs: int, int64, string, []string, []int, and []byte payloads.
type (
	bufArg    int64        // read destination: heap (ptr,len); message: the length
	outBufArg int64        // result buffer: heap (ptr,len); message: nothing
	outArg    int64        // fixed-size result record: heap ptr; message: nothing
	iovArg    []int        // readv lengths
	wiovArg   [][]byte     // writev buffers
	pollArg   []abi.Pollfd // poll's array
)

// stager bump-allocates heap scratch for a call's arguments.
type stager struct {
	w   *ringWorld
	top int64
}

func (s *stager) alloc(n int64) int64 {
	if s.top < 64 {
		s.top = 64
	}
	p := s.top
	s.top = (p + n + 7) &^ 7
	return p
}

func (s *stager) put(b []byte) (int64, int64) {
	p := s.alloc(int64(len(b)))
	copy(s.w.task.heap.Bytes()[p:], b)
	return p, int64(len(b))
}

// heapArgs marshals a spec the way the runtime's sync transport does and
// returns readers for its results; ret is supplied once the call is done.
func (s *stager) heapArgs(spec []any) ([]int64, []func(ret int64) []byte) {
	hb := s.w.task.heap.Bytes()
	var args []int64
	var outs []func(int64) []byte
	for _, a := range spec {
		switch x := a.(type) {
		case int:
			args = append(args, int64(x))
		case int64:
			args = append(args, x)
		case string:
			p, n := s.put([]byte(x))
			args = append(args, p, n)
		case []string:
			var packed []byte
			for _, e := range x {
				packed = append(append(packed, e...), 0)
			}
			p, n := s.put(packed)
			args = append(args, p, n)
		case []int:
			packed := make([]byte, 4*len(x))
			for i, n := range x {
				binary.LittleEndian.PutUint32(packed[i*4:], uint32(int32(n)))
			}
			p, _ := s.put(packed)
			args = append(args, p, int64(len(x)))
		case []byte:
			p, n := s.put(x)
			args = append(args, p, n)
		case bufArg, outBufArg:
			n := bufLen(x)
			p := s.alloc(n)
			args = append(args, p, n)
			outs = append(outs, func(ret int64) []byte {
				if ret <= 0 {
					return nil
				}
				return append([]byte(nil), hb[p:p+ret]...)
			})
		case outArg:
			p := s.alloc(int64(x))
			args = append(args, p)
			outs = append(outs, func(int64) []byte { return append([]byte(nil), hb[p:p+int64(x)]...) })
		case iovArg:
			iovs := make([]abi.Iovec, len(x))
			for i, n := range x {
				iovs[i] = abi.Iovec{Ptr: s.alloc(int64(n)), Len: int64(n)}
			}
			ivp := s.alloc(int64(len(iovs) * abi.IovecSize))
			abi.PackIovecs(hb[ivp:], iovs)
			args = append(args, ivp, int64(len(iovs)))
			outs = append(outs, func(ret int64) []byte {
				var got []byte
				for _, iov := range iovs {
					take := iov.Len
					if take > ret-int64(len(got)) {
						take = ret - int64(len(got))
					}
					if take <= 0 {
						break
					}
					got = append(got, hb[iov.Ptr:iov.Ptr+take]...)
				}
				return got
			})
		case wiovArg:
			iovs := make([]abi.Iovec, len(x))
			for i, b := range x {
				p, n := s.put(b)
				iovs[i] = abi.Iovec{Ptr: p, Len: n}
			}
			ivp := s.alloc(int64(len(iovs) * abi.IovecSize))
			abi.PackIovecs(hb[ivp:], iovs)
			args = append(args, ivp, int64(len(iovs)))
		case pollArg:
			packed := make([]byte, len(x)*abi.PollfdSize)
			abi.PackPollfds(packed, x)
			p, _ := s.put(packed)
			args = append(args, p, int64(len(x)))
			outs = append(outs, func(int64) []byte {
				var got []byte
				for _, f := range abi.UnpackPollfds(hb[p:], len(x)) {
					got = binary.LittleEndian.AppendUint32(got, f.Revents)
				}
				return got
			})
		default:
			panic("unknown argument kind")
		}
	}
	return args, outs
}

func bufLen(a any) int64 {
	switch x := a.(type) {
	case bufArg:
		return int64(x)
	case outBufArg:
		return int64(x)
	}
	panic("not a buffer")
}

// msgArgs marshals a spec the way the runtime's async transport does.
func msgArgs(spec []any) []browser.Value {
	var args []browser.Value
	for _, a := range spec {
		switch x := a.(type) {
		case int:
			args = append(args, int64(x))
		case int64, string, []byte:
			args = append(args, x)
		case []string:
			args = append(args, browser.StringArray(x))
		case []int:
			v := make([]browser.Value, len(x))
			for i, n := range x {
				v[i] = int64(n)
			}
			args = append(args, v)
		case bufArg:
			args = append(args, int64(x))
		case outBufArg, outArg:
		case iovArg:
			v := make([]browser.Value, len(x))
			for i, n := range x {
				v[i] = int64(n)
			}
			args = append(args, v)
		case wiovArg:
			v := make([]browser.Value, len(x))
			for i, b := range x {
				v[i] = b
			}
			args = append(args, v)
		case pollArg:
			var v []browser.Value
			for _, f := range x {
				v = append(v, int64(f.Fd), int64(f.Events))
			}
			args = append(args, v)
		default:
			panic("unknown argument kind")
		}
	}
	return args
}

// msgOutput converts a reply's extras to the bytes the heap transport
// would have written for them.
func msgOutput(extra []browser.Value) []byte {
	var out []byte
	var ents []abi.Dirent
	var add func(v browser.Value)
	add = func(v browser.Value) {
		switch x := v.(type) {
		case int64:
			out = binary.LittleEndian.AppendUint32(out, uint32(x))
		case []byte:
			out = append(out, x...)
		case string:
			out = append(out, x...)
		case map[string]browser.Value:
			if _, dirent := x["name"]; dirent {
				ents = append(ents, abi.DirentFromMap(x))
				return
			}
			var st [abi.StatSize]byte
			abi.PackStat(st[:], abi.StatFromMap(x))
			out = append(out, st[:]...)
		case []browser.Value:
			for _, e := range x {
				add(e)
			}
		}
	}
	for _, v := range extra {
		add(v)
	}
	if len(ents) > 0 {
		packed := make([]byte, abi.DirentsSize(ents))
		abi.PackDirents(packed, ents)
		out = append(out, packed...)
	}
	return out
}

// outcome is what one transport made of a call.
type outcome struct {
	completed bool
	ret       int64
	err       abi.Errno
	out       []byte
}

func (w *ringWorld) runMsg(trap int, spec []any) outcome {
	var o outcome
	c := &msgCall{args: msgArgs(spec), reply: func(v ...browser.Value) {
		o.completed = true
		n, _ := toInt(v[0])
		e, _ := toInt(v[1])
		o.ret, o.err = n, abi.Errno(e)
		o.out = msgOutput(v[2:])
	}}
	w.dispatch(trap, c, &o.completed)
	return o
}

func (w *ringWorld) runHeap(trap int, spec []any) outcome {
	s := &stager{w: w, top: 32 * 1024}
	args, outs := s.heapArgs(spec)
	var o outcome
	c := &heapCall{t: w.task, args: args, fin: func(r int64, e abi.Errno) { o.completed, o.ret, o.err = true, r, e }}
	w.dispatch(trap, c, &o.completed)
	for _, read := range outs {
		o.out = append(o.out, read(o.ret)...)
	}
	return o
}

// open opens path through a heap-backed call (test set-up, identical in
// every world) and returns the descriptor.
func (w *ringWorld) open(t testing.TB, path string, flags int) int {
	s := &stager{w: w, top: 16 * 1024}
	args, _ := s.heapArgs([]any{path, flags, 0o644})
	fd, err, _ := w.heapDispatch(abi.SYS_open, args...)
	if err != abi.OK {
		t.Fatalf("open %s: %v", path, err)
	}
	return int(fd)
}

func (w *ringWorld) socket(t testing.TB, port int) int {
	fd, _, _ := w.heapDispatch(abi.SYS_socket)
	if port > 0 {
		if _, err, _ := w.heapDispatch(abi.SYS_bind, fd, int64(port)); err != abi.OK {
			t.Fatalf("bind: %v", err)
		}
	}
	return int(fd)
}

// transportOnly lists the traps that exist on one transport only: the
// other answers ENOSYS.
var transportOnly = map[int]string{
	abi.SYS_fork:    "async", // §3.2: fork cannot rewind a blocked worker
	abi.SYS_readg:   "heap",  // grants map the shared page pool
	abi.SYS_unlease: "heap",
	abi.SYS_wgalloc: "heap",
	abi.SYS_writeg:  "heap",
}

// TestEveryTrapSameOnBothTransports is the dispatch table's coverage
// guard: every trap from SYS_open to SYS_max-1 either gives identical
// (ret, errno, output bytes) through a message-backed and a heap-backed
// call in identical worlds, or is listed as transport-only. A new SYS_
// constant without a row fails here.
func TestEveryTrapSameOnBothTransports(t *testing.T) {
	type row struct {
		name string
		trap int
		// spec sets the world up (identically on both sides) and returns
		// the call's transport-neutral argument spec.
		spec func(t *testing.T, w *ringWorld) []any
	}
	fd := func(path string, flags int) func(*testing.T, *ringWorld) []any {
		return func(t *testing.T, w *ringWorld) []any { return []any{w.open(t, path, flags)} }
	}
	with := func(path string, flags int, rest ...any) func(*testing.T, *ringWorld) []any {
		return func(t *testing.T, w *ringWorld) []any {
			return append([]any{w.open(t, path, flags)}, rest...)
		}
	}
	args := func(a ...any) func(*testing.T, *ringWorld) []any {
		return func(*testing.T, *ringWorld) []any { return a }
	}
	rw := abi.O_RDWR
	rows := []row{
		{"open", abi.SYS_open, args("/f", abi.O_RDONLY, 0)},
		{"open-missing", abi.SYS_open, args("/nope", abi.O_RDONLY, 0)},
		{"open-dir", abi.SYS_open, args("/d", abi.O_RDONLY, 0)},
		{"close", abi.SYS_close, fd("/f", abi.O_RDONLY)},
		{"close-ebadf", abi.SYS_close, args(9)},
		{"read", abi.SYS_read, with("/f", abi.O_RDONLY, bufArg(5))},
		{"read-ebadf", abi.SYS_read, args(9, bufArg(5))},
		{"write", abi.SYS_write, with("/f", rw, []byte("HELLO"))},
		{"pread", abi.SYS_pread, with("/f", abi.O_RDONLY, bufArg(5), int64(6))},
		{"pwrite", abi.SYS_pwrite, with("/f", rw, []byte("W"), int64(6))},
		{"llseek", abi.SYS_llseek, with("/f", abi.O_RDONLY, int64(4), abi.SEEK_SET)},
		{"stat", abi.SYS_stat, args("/ln", outArg(abi.StatSize))},
		{"stat-missing", abi.SYS_stat, args("/nope", outArg(abi.StatSize))},
		{"lstat", abi.SYS_lstat, args("/ln", outArg(abi.StatSize))},
		{"fstat", abi.SYS_fstat, with("/f", abi.O_RDONLY, outArg(abi.StatSize))},
		{"access", abi.SYS_access, args("/f", abi.R_OK)},
		{"readlink", abi.SYS_readlink, args("/ln", outBufArg(64))},
		{"readlink-missing", abi.SYS_readlink, args("/nope", outBufArg(64))},
		{"readlink-notlink", abi.SYS_readlink, args("/f", outBufArg(64))},
		{"utimes", abi.SYS_utimes, args("/f", int64(1), int64(2))},
		{"unlink", abi.SYS_unlink, args("/f")},
		{"mkdir", abi.SYS_mkdir, args("/new", 0o755)},
		{"rmdir", abi.SYS_rmdir, args("/d2")},
		{"rmdir-notempty", abi.SYS_rmdir, args("/d")},
		{"getdents", abi.SYS_getdents, with("/d", abi.O_RDONLY, outBufArg(64*1024))},
		{"getdents-notdir", abi.SYS_getdents, with("/f", abi.O_RDONLY, outBufArg(64*1024))},
		{"rename", abi.SYS_rename, args("/f", "/g")},
		{"dup2", abi.SYS_dup2, with("/f", abi.O_RDONLY, 7)},
		{"ftruncate", abi.SYS_ftruncate, with("/f", rw, int64(2))},
		{"pipe2", abi.SYS_pipe2, args(outArg(8))},
		{"spawn-missing", abi.SYS_spawn, func(t *testing.T, w *ringWorld) []any {
			for i := 0; i < 3; i++ {
				w.open(t, "/f", abi.O_RDONLY) // stdio to inherit
			}
			return []any{"/nope", []string{"nope"}, []string{"A=1"}, []int{}}
		}},
		{"exec-missing", abi.SYS_exec, args("/nope", []string{"nope"}, []string{"A=1"})},
		{"wait4-nochild", abi.SYS_wait4, args(-1, outArg(4), 0)},
		{"exit", abi.SYS_exit, args(3)},
		{"kill", abi.SYS_kill, args(1, 0)},
		{"kill-esrch", abi.SYS_kill, args(99, abi.SIGTERM)},
		{"signal", abi.SYS_signal, args(abi.SIGUSR1, 1)},
		{"signal-kill", abi.SYS_signal, args(abi.SIGKILL, 1)},
		{"getpid", abi.SYS_getpid, args()},
		{"getppid", abi.SYS_getppid, args()},
		{"getcwd", abi.SYS_getcwd, args(outBufArg(4096))},
		{"chdir", abi.SYS_chdir, args("/d")},
		{"chdir-notdir", abi.SYS_chdir, args("/f")},
		{"socket", abi.SYS_socket, args()},
		{"bind", abi.SYS_bind, func(t *testing.T, w *ringWorld) []any { return []any{w.socket(t, 0), 8080} }},
		{"listen", abi.SYS_listen, func(t *testing.T, w *ringWorld) []any { return []any{w.socket(t, 8080), 16} }},
		{"accept-eagain", abi.SYS_accept, func(t *testing.T, w *ringWorld) []any {
			s := w.socket(t, 8080)
			w.heapDispatch(abi.SYS_listen, int64(s), 16)
			return []any{s, abi.O_NONBLOCK}
		}},
		{"accept-notsock", abi.SYS_accept, with("/f", abi.O_RDONLY, 0)},
		{"connect-refused", abi.SYS_connect, func(t *testing.T, w *ringWorld) []any { return []any{w.socket(t, 0), 9} }},
		{"getsockname", abi.SYS_getsockname, func(t *testing.T, w *ringWorld) []any { return []any{w.socket(t, 8080)} }},
		{"symlink", abi.SYS_symlink, args("/f", "/ln2")},
		{"readv", abi.SYS_readv, with("/f", abi.O_RDONLY, iovArg{3, 4})},
		{"readv-zero", abi.SYS_readv, with("/f", abi.O_RDONLY, iovArg{})},
		{"readv-pipe", abi.SYS_readv, func(t *testing.T, w *ringWorld) []any {
			rfd, wfd := w.k.doPipe2(w.task)
			s := &stager{w: w, top: 16 * 1024}
			p, n := s.put([]byte("piped"))
			w.heapDispatch(abi.SYS_write, int64(wfd), p, n)
			return []any{rfd, iovArg{2, 8}}
		}},
		{"writev", abi.SYS_writev, with("/f", rw, wiovArg{[]byte("ab"), []byte("cd")})},
		{"writev-zero", abi.SYS_writev, with("/f", rw, wiovArg{})},
		{"fsync", abi.SYS_fsync, fd("/f", rw)},
		{"poll", abi.SYS_poll, func(t *testing.T, w *ringWorld) []any {
			rfd, wfd := w.k.doPipe2(w.task)
			return []any{pollArg{{Fd: int32(rfd), Events: abi.POLLIN}, {Fd: int32(wfd), Events: abi.POLLOUT}}, int64(0)}
		}},
		{"setfl", abi.SYS_setfl, func(t *testing.T, w *ringWorld) []any { return []any{w.socket(t, 0), abi.O_NONBLOCK} }},
	}

	// Linux semantics where the transports once disagreed: a zero-count
	// readv/writev returns 0.
	zero := map[string]bool{"readv-zero": true, "writev-zero": true}

	covered := map[int]bool{}
	for _, r := range rows {
		r := r
		covered[r.trap] = true
		t.Run(r.name, func(t *testing.T) {
			a, h := newTrapWorld(t), newTrapWorld(t)
			got, want := a.runMsg(r.trap, r.spec(t, a)), h.runHeap(r.trap, r.spec(t, h))
			if got.completed != want.completed || got.ret != want.ret || got.err != want.err || !bytes.Equal(got.out, want.out) {
				t.Errorf("%s: async %+v, heap %+v", abi.SyscallName(r.trap), got, want)
			}
			if zero[r.name] && (want.ret != 0 || want.err != abi.OK) {
				t.Errorf("%s: ret=%d err=%v, want 0/OK", abi.SyscallName(r.trap), want.ret, want.err)
			}
		})
	}
	for trap, only := range transportOnly {
		covered[trap] = true
		w := newTrapWorld(t)
		var o outcome
		if only == "async" {
			o = w.runHeap(trap, nil)
		} else {
			o = w.runMsg(trap, nil)
		}
		if !o.completed || o.err != abi.ENOSYS {
			t.Errorf("%s on the %s-less transport: %+v, want ENOSYS", abi.SyscallName(trap), only, o)
		}
	}
	for trap := abi.SYS_open; trap < abi.SYS_max; trap++ {
		if !covered[trap] {
			t.Errorf("trap %d (%s) has no row: add one, or list it as transport-only", trap, abi.SyscallName(trap))
		}
		if got := abi.SyscallTrap(abi.SyscallName(trap)); got != trap {
			t.Errorf("SyscallTrap(%q) = %d, want %d", abi.SyscallName(trap), got, trap)
		}
	}
}

// TestHeapRangesFailWithEFAULT: every heap pointer argument is
// bounds-checked once, in the heap-backed call's accessors. A ring frame
// naming memory outside the process's heap fails with EFAULT — it must
// never panic the kernel — whichever argument is bad.
func TestHeapRangesFailWithEFAULT(t *testing.T) {
	const far = 1 << 30
	const wrap = (1 << 63) - 2
	// Each world has fd 0 = /f (read-write), 1/2 = a pipe, 3 = /d; a
	// valid "/f" string at str/strN, and a valid 4 KiB result area at ok.
	const str, strN, ok = int64(64), int64(2), int64(1024)
	cases := []struct {
		name string
		trap int
		args []int64
	}{
		{"stat path ptr", abi.SYS_stat, []int64{far, 4, 64}},
		{"stat path len", abi.SYS_stat, []int64{64, -5, 64}},
		{"pipe2 fds", abi.SYS_pipe2, []int64{far}},
		{"getcwd buf", abi.SYS_getcwd, []int64{far, 4096}},

		{"stat path wraps", abi.SYS_stat, []int64{wrap, 4, ok}},
		{"stat record", abi.SYS_stat, []int64{str, strN, far}},
		{"lstat path", abi.SYS_lstat, []int64{far, 4, ok}},
		{"lstat record", abi.SYS_lstat, []int64{str, strN, -8}},
		{"fstat record", abi.SYS_fstat, []int64{0, far}},
		{"open path", abi.SYS_open, []int64{far, 4, abi.O_RDONLY, 0}},
		{"open path creating", abi.SYS_open, []int64{far, 4, abi.O_CREAT | abi.O_WRONLY, 0o644}},
		{"access path", abi.SYS_access, []int64{far, 4, 0}},
		{"readlink path", abi.SYS_readlink, []int64{far, 4, ok, 16}},
		{"readlink buf", abi.SYS_readlink, []int64{str, strN, far, 16}},
		{"read buf", abi.SYS_read, []int64{0, far, 16}},
		{"read buf wraps", abi.SYS_read, []int64{0, wrap, 16}},
		{"write buf", abi.SYS_write, []int64{0, far, 16}},
		{"write len", abi.SYS_write, []int64{0, ok, -1}},
		{"pread buf", abi.SYS_pread, []int64{0, far, 16, 0}},
		{"pwrite buf", abi.SYS_pwrite, []int64{0, far, 16, 0}},
		{"readv iovecs", abi.SYS_readv, []int64{1, far, 1}},
		{"writev iovecs", abi.SYS_writev, []int64{2, far, 1}},
		{"getdents buf", abi.SYS_getdents, []int64{3, far, 4096}},
		{"utimes path", abi.SYS_utimes, []int64{far, 4, 0, 0}},
		{"unlink path", abi.SYS_unlink, []int64{far, 4}},
		{"mkdir path", abi.SYS_mkdir, []int64{far, 4, 0o755}},
		{"rmdir path", abi.SYS_rmdir, []int64{far, 4}},
		{"chdir path", abi.SYS_chdir, []int64{far, 4}},
		{"rename from", abi.SYS_rename, []int64{far, 4, str, strN}},
		{"rename to", abi.SYS_rename, []int64{str, strN, far, 4}},
		{"symlink target", abi.SYS_symlink, []int64{far, 4, str, strN}},
		{"symlink link", abi.SYS_symlink, []int64{str, strN, far, 4}},
		{"spawn path", abi.SYS_spawn, []int64{far, 4, str, strN, str, strN, ok, 0}},
		{"spawn argv", abi.SYS_spawn, []int64{str, strN, far, 4, str, strN, ok, 0}},
		{"spawn env", abi.SYS_spawn, []int64{str, strN, str, strN, far, 4, ok, 0}},
		{"spawn fds", abi.SYS_spawn, []int64{str, strN, str, strN, str, strN, far, 1}},
		{"exec path", abi.SYS_exec, []int64{far, 4, str, strN, str, strN}},
		{"exec argv", abi.SYS_exec, []int64{str, strN, far, 4, str, strN}},
		{"exec env", abi.SYS_exec, []int64{str, strN, str, strN, far, 4}},
		{"wait4 status", abi.SYS_wait4, []int64{-1, far, 0}},
		{"poll fds", abi.SYS_poll, []int64{far, 1, 0}},
		{"readg buf", abi.SYS_readg, []int64{0, far, 16, ok, 4, 16}},
		{"readg grants", abi.SYS_readg, []int64{0, ok, 16, far, 4, 16}},
		{"unlease slots", abi.SYS_unlease, []int64{far, 1}},
		{"wgalloc grants", abi.SYS_wgalloc, []int64{1, far}},
		{"writeg refs", abi.SYS_writeg, []int64{2, far, 1}},
	}
	for _, tc := range cases {
		w := newTrapWorld(t)
		w.task.pool = true // so the grant calls get as far as their arguments
		w.open(t, "/f", abi.O_RDWR)
		w.k.doPipe2(w.task)
		w.open(t, "/d", abi.O_RDONLY)
		copy(w.task.heap.Bytes()[str:], "/f")

		if !w.task.ring.req.PushCall(1, tc.trap, tc.args) {
			t.Fatalf("%s: request ring full", tc.name)
		}
		w.drain(t)
		_, ret, errno, got := w.task.ring.rep.PopReply()
		if !got || ret != -1 || errno != abi.EFAULT {
			t.Errorf("%s: replied=%v ret=%d errno=%v, want -1/EFAULT", tc.name, got, ret, errno)
		}
	}

	// Zero-count vectors read nothing through their pointer, so any
	// pointer is accepted — and nothing may be written through it.
	for _, tc := range []struct {
		name string
		trap int
		args []int64
	}{
		{"poll no fds", abi.SYS_poll, []int64{far, 0, 0}},
		{"readv no iovecs", abi.SYS_readv, []int64{0, far, 0}},
		{"writev no iovecs", abi.SYS_writev, []int64{0, -far, 0}},
	} {
		w := newTrapWorld(t)
		w.open(t, "/f", abi.O_RDWR)
		w.task.ring.req.PushCall(1, tc.trap, tc.args)
		w.drain(t)
		if _, ret, errno, got := w.task.ring.rep.PopReply(); !got || ret != 0 || errno != abi.OK {
			t.Errorf("%s: replied=%v ret=%d errno=%v, want 0/OK", tc.name, got, ret, errno)
		}
	}
}

// TestReadlinkBadLengthSameAloneAndBatched: readlink checks its buffer
// length before resolving the path, so a negative length on a missing
// path fails with the same errno whether the frame dispatches alone or
// rides a batched doorbell behind an access probe.
func TestReadlinkBadLengthSameAloneAndBatched(t *testing.T) {
	stageMissing := func(w *ringWorld) (int64, int64) {
		copy(w.task.heap.Bytes()[64:], "/missing")
		return 64, int64(len("/missing"))
	}
	replies := func(w *ringWorld) map[uint32]abi.Errno {
		errs := map[uint32]abi.Errno{}
		for {
			seq, _, errno, ok := w.task.ring.rep.PopReply()
			if !ok {
				return errs
			}
			errs[seq] = errno
		}
	}

	lone := newTrapWorld(t)
	p, n := stageMissing(lone)
	lone.task.ring.req.PushCall(0, abi.SYS_readlink, []int64{p, n, 1024, -1})
	lone.drain(t)
	loneErr := replies(lone)[0]

	batch := newTrapWorld(t)
	p, n = stageMissing(batch)
	batch.task.ring.req.PushCall(0, abi.SYS_access, []int64{p, n, abi.F_OK})
	batch.task.ring.req.PushCall(1, abi.SYS_readlink, []int64{p, n, 1024, -1})
	batched := batch.k.FSBatchedCalls.Load()
	batch.drain(t)
	if got := batch.k.FSBatchedCalls.Load() - batched; got != 2 {
		t.Fatalf("FSBatchedCalls += %d, want 2 (the pair must ride one batch)", got)
	}
	errs := replies(batch)

	if loneErr != abi.EINVAL {
		t.Errorf("lone readlink(bufLen=-1): %v, want EINVAL", loneErr)
	}
	if errs[1] != loneErr {
		t.Errorf("batched readlink(bufLen=-1): %v, lone: %v", errs[1], loneErr)
	}
	if errs[0] != abi.ENOENT {
		t.Errorf("batched access: %v, want ENOENT", errs[0])
	}
}
