package core

import (
	"strings"

	"repro/internal/abi"
)

// The kernel's one system-call dispatch table (dispatchCall), shared by
// every transport (§3.2), plus the synchronous transport's heap access
// and completion.
//
// On the synchronous transport, arguments are "just integers and integer
// offsets (representing pointers) into the shared memory array": strings
// and buffers arrive as (ptr, len) pairs, which heapCall (call.go)
// bounds-checks and reads through heapStr/heapBytes. For calls like
// pread, "data is copied directly from the filesystem, pipe or socket
// into the process's heap, avoiding a potentially large allocation and
// extra copy" (heapWrite).
//
// Completion protocol: the kernel writes ret (int64) at the task's
// registered retOff and errno (int32) at retOff+8, stores 1 into the wake
// cell, and Atomics.notify's it. The process zeroes the wake cell before
// each call and Atomics.wait's on it. The ring transport (ring.go)
// completes through reply frames instead.

// heapStr reads a (ptr,len) string argument out of the task's heap.
func (t *Task) heapStr(ptr, n int64) string {
	k := t.k
	k.Sys.Sim.Charge(int64(float64(n) * k.CPU.SyncByteNs))
	b := t.heap.Bytes()
	return string(b[ptr : ptr+n])
}

// heapBytes copies a (ptr,len) buffer out of the task's heap.
func (t *Task) heapBytes(ptr, n int64) []byte {
	k := t.k
	k.Sys.Sim.Charge(int64(float64(n) * k.CPU.SyncByteNs))
	out := make([]byte, n)
	copy(out, t.heap.Bytes()[ptr:ptr+n])
	return out
}

// heapWrite copies data into the task's heap at ptr.
func (t *Task) heapWrite(ptr int64, data []byte) {
	k := t.k
	k.Sys.Sim.Charge(int64(float64(len(data)) * k.CPU.SyncByteNs))
	copy(t.heap.Bytes()[ptr:], data)
	t.heap.MarkDirty(int(ptr), len(data))
}

// syncReply completes a synchronous call: results into the heap, then
// wake the blocked worker thread.
func (k *Kernel) syncReply(t *Task, ret int64, err abi.Errno) {
	if t.heap == nil || t.state == taskZombie {
		return
	}
	b := t.heap.Bytes()
	le := leAt(b, t.retOff)
	le.putU64(uint64(ret))
	leAt(b, t.retOff+8).putU32(uint32(int32(err)))
	t.heap.Store32(t.waitOff, 1)
	k.Sys.FutexNotify(t.heap, t.waitOff, 1)
}

// little-endian cursor helpers (avoiding binary.Write allocations).
type leCursor struct {
	b   []byte
	off int
}

func leAt(b []byte, off int) leCursor { return leCursor{b, off} }

func (c leCursor) putU32(v uint32) {
	c.b[c.off] = byte(v)
	c.b[c.off+1] = byte(v >> 8)
	c.b[c.off+2] = byte(v >> 16)
	c.b[c.off+3] = byte(v >> 24)
}

func (c leCursor) putU64(v uint64) {
	c.putU32(uint32(v))
	leCursor{c.b, c.off + 4}.putU32(uint32(v >> 32))
}

// dispatchSync decodes and executes a synchronous system call, completing
// it through the wake-cell reply protocol. It routes through the same
// batch entry point as the ring transport — with batch size 1 — so the
// scalar path can never diverge from a drained doorbell's behaviour.
func (k *Kernel) dispatchSync(t *Task, trap int, a []int64) {
	if t.heap == nil {
		return // no personality registered; nothing to wake
	}
	k.dispatchBatch(t, []pendingCall{{trap: trap, args: a}}, func(_ uint32, ret int64, err abi.Errno) {
		k.syncReply(t, ret, err)
	})
}

// dispatchCall executes one system call, whichever transport carried it:
// the switch reads arguments and delivers results through c, so each
// trap has exactly one case. Where the transports' encodings differ
// (read data, stat records, dirents...), the difference is a reply
// method on call.
func (k *Kernel) dispatchCall(t *Task, trap int, c call) {
	switch trap {
	case abi.SYS_open, abi.SYS_stat, abi.SYS_lstat, abi.SYS_access, abi.SYS_readlink:
		// Path lookups resolve through FS.MetaBatch, alone as here or as
		// a drained ring run (dispatchMetaRun).
		k.resolveMeta(t, []metaCall{k.decodeMeta(t, trap, c)})
	case abi.SYS_close:
		t.closeFd(int(c.num()), func(err abi.Errno) { c.done(0, err) })
	case abi.SYS_read:
		if d, b := fdArg(t, c), c.buf(); !failed(c) {
			d.file.Read(d, int(b.len), func(data []byte, err abi.Errno) { c.replyData(b, data, err) })
		}
	case abi.SYS_write:
		// The payload is kernel-owned, so ownership can transfer to the
		// file (zero-copy into pipes).
		if d, data := fdArg(t, c), c.payload(); !failed(c) {
			writeMoved(d, data, func(n int, err abi.Errno) { c.done(int64(n), err) })
		}
	case abi.SYS_readv:
		d, iovs := fdArg(t, c), c.iovecs()
		if failed(c) {
			return
		}
		total := 0
		for _, iov := range iovs {
			total += int(iov.Len)
		}
		if total == 0 {
			c.done(0, abi.OK)
			return
		}
		readGather(d, total, func(segs [][]byte, err abi.Errno) {
			if err != abi.OK {
				c.done(-1, err)
				return
			}
			c.replySegs(iovs, segs)
		})
	case abi.SYS_writev:
		if d, bufs := fdArg(t, c), c.payloads(); !failed(c) {
			writevBufs(d, bufs, c.done)
		}
	case abi.SYS_pread:
		if d, b, off := fdArg(t, c), c.buf(), c.num(); !failed(c) {
			d.file.Pread(off, int(b.len), func(data []byte, err abi.Errno) { c.replyData(b, data, err) })
		}
	case abi.SYS_pwrite:
		if d, data, off := fdArg(t, c), c.payload(), c.num(); !failed(c) {
			d.file.Pwrite(off, data, func(n int, err abi.Errno) { c.done(int64(n), err) })
		}
	case abi.SYS_llseek:
		if d, off, whence := fdArg(t, c), c.num(), c.num(); !failed(c) {
			d.file.Seek(d, off, int(whence), c.done)
		}
	case abi.SYS_ftruncate:
		if d, size := fdArg(t, c), c.num(); !failed(c) {
			d.file.Truncate(size, func(err abi.Errno) { c.done(0, err) })
		}
	case abi.SYS_fsync:
		if d := fdArg(t, c); !failed(c) {
			syncFile(d.file, func(err abi.Errno) { c.done(0, err) })
		}
	case abi.SYS_fstat:
		if d, o := fdArg(t, c), c.out(abi.StatSize); !failed(c) {
			d.file.Stat(func(st abi.Stat, err abi.Errno) { c.replyStat(o, st, err) })
		}
	case abi.SYS_getdents:
		if d, o := fdArg(t, c), c.outBuf(); !failed(c) {
			d.file.Getdents(d, func(ents []abi.Dirent, err abi.Errno) { c.replyDirents(d, o, ents, err) })
		}
	case abi.SYS_utimes:
		if p, atime, mtime := c.str(), c.num(), c.num(); !failed(c) {
			k.FS.Utimes(t.abs(p), atime, mtime, func(err abi.Errno) { c.done(0, err) })
		}
	case abi.SYS_unlink:
		if p := c.str(); !failed(c) {
			k.FS.Unlink(t.abs(p), func(err abi.Errno) { c.done(0, err) })
		}
	case abi.SYS_mkdir:
		if p, mode := c.str(), c.num(); !failed(c) {
			k.FS.Mkdir(t.abs(p), uint32(mode), func(err abi.Errno) { c.done(0, err) })
		}
	case abi.SYS_rmdir:
		if p := c.str(); !failed(c) {
			k.FS.Rmdir(t.abs(p), func(err abi.Errno) { c.done(0, err) })
		}
	case abi.SYS_symlink:
		if target, link := c.str(), c.str(); !failed(c) {
			k.FS.Symlink(target, t.abs(link), func(err abi.Errno) { c.done(0, err) })
		}
	case abi.SYS_rename:
		if from, to := c.str(), c.str(); !failed(c) {
			k.FS.Rename(t.abs(from), t.abs(to), func(err abi.Errno) { c.done(0, err) })
		}
	case abi.SYS_dup2:
		oldfd, newfd := c.num(), c.num()
		c.done(newfd, k.doDup2(t, int(oldfd), int(newfd)))
	case abi.SYS_pipe2:
		if o := c.out(8); !failed(c) {
			rfd, wfd := k.doPipe2(t)
			c.replyPipe(o, rfd, wfd)
		}
	case abi.SYS_spawn:
		if path, argv, env, files := c.str(), c.strs(), c.strs(), c.ints(); !failed(c) {
			k.doSpawn(t, path, argv, env, files, func(pid int, err abi.Errno) { c.done(int64(pid), err) })
		}
	case abi.SYS_fork:
		// "fork is not compatible with synchronous system calls, as
		// there is no way to re-wind or jump to a particular call stack
		// in the child Web Worker" (§3.2).
		if _, async := c.(*msgCall); !async {
			c.done(-1, abi.ENOSYS)
			return
		}
		img := &ForkImage{Mem: c.payload(), Label: c.str()}
		k.doFork(t, img, func(pid int, err abi.Errno) { c.done(int64(pid), err) })
	case abi.SYS_exec:
		// Only failures complete the call; on success the old image is
		// gone.
		if path, argv, env := c.str(), c.strs(), c.strs(); !failed(c) {
			k.doExec(t, path, argv, env, func(err abi.Errno) { c.done(-1, err) })
		}
	case abi.SYS_wait4:
		if pid, o, options := c.num(), c.out(4), c.num(); !failed(c) {
			k.doWait4(t, int(pid), int(options), func(pid, status int, err abi.Errno) { c.replyWait(o, pid, status, err) })
		}
	case abi.SYS_exit:
		k.doExit(t, int(c.num()))
	case abi.SYS_kill:
		pid, sig := c.num(), c.num()
		c.done(0, k.doKill(int(pid), int(sig)))
	case abi.SYS_signal:
		sig, action := c.num(), c.num()
		c.done(0, k.doSignalAction(t, int(sig), int(action)))
	case abi.SYS_getpid:
		c.done(int64(t.Pid), abi.OK)
	case abi.SYS_getppid:
		c.done(int64(t.ParentPid), abi.OK)
	case abi.SYS_getcwd:
		o := c.outBuf()
		if int64(len(t.cwd)) > o.len {
			c.fail(abi.ERANGE)
		}
		if !failed(c) {
			c.replyStr(o, t.cwd, abi.OK)
		}
	case abi.SYS_chdir:
		if p := c.str(); !failed(c) {
			k.doChdir(t, p, func(err abi.Errno) { c.done(0, err) })
		}
	case abi.SYS_socket:
		c.done(int64(t.installFd(NewDesc(k.NewSocket(), abi.O_RDWR, "socket:"))), abi.OK)
	case abi.SYS_bind:
		if s, port := sockArg(t, c), c.num(); !failed(c) {
			c.done(0, k.BindSocket(s, int(port)))
		}
	case abi.SYS_listen:
		if s, backlog := sockArg(t, c), c.num(); !failed(c) {
			c.done(0, k.ListenSocket(s, int(backlog)))
		}
	case abi.SYS_accept:
		// accept4-shaped: the second argument carries flags. O_NONBLOCK
		// there (or on the listener descriptor) makes the accept
		// non-blocking, and the flag is inherited by the new connection's
		// descriptor — so an event loop drains a whole backlog without a
		// blocking edge.
		d, flags := fdArg(t, c), int(c.num())
		var s *Socket
		if d != nil {
			if s, _ = d.file.(*Socket); s == nil {
				c.fail(abi.ENOTSOCK)
			}
		}
		if failed(c) {
			return
		}
		connFlags := abi.O_RDWR | flags&abi.O_NONBLOCK
		nonblock := d.flags&abi.O_NONBLOCK != 0 || flags&abi.O_NONBLOCK != 0
		k.AcceptSocket(s, nonblock, func(conn *Socket, err abi.Errno) {
			if err != abi.OK {
				c.done(-1, err)
				return
			}
			c.done(int64(t.installFd(NewDesc(conn, connFlags, "socket:conn"))), abi.OK)
		})
	case abi.SYS_connect:
		if s, port := sockArg(t, c), c.num(); !failed(c) {
			k.ConnectSocket(s, int(port), func(err abi.Errno) { c.done(0, err) })
		}
	case abi.SYS_getsockname:
		if s := sockArg(t, c); !failed(c) {
			c.done(int64(s.port), abi.OK)
		}
	case abi.SYS_poll:
		// Readiness over a pollfd array; timeout ns (-1 block, 0 probe).
		// Returns the ready count; revents travel back by reply.
		if fds, o := c.pollfds(); !failed(c) {
			timeout := c.num()
			k.doPoll(t, fds, timeout, func(n int, err abi.Errno) { c.replyPoll(o, fds, n, err) })
		}
	case abi.SYS_setfl:
		// fcntl F_SETFL subset: only O_NONBLOCK is honored.
		if d, flags := fdArg(t, c), int(c.num()); !failed(c) {
			d.flags = d.flags&^abi.O_NONBLOCK | flags&abi.O_NONBLOCK
			c.done(0, abi.OK)
		}
	case abi.SYS_readg:
		if h := heapOnly(c); h != nil {
			k.doReadg(t, h)
		}
	case abi.SYS_unlease:
		if h := heapOnly(c); h != nil {
			k.doUnlease(t, h)
		}
	case abi.SYS_wgalloc:
		if h := heapOnly(c); h != nil {
			k.doWgalloc(t, h)
		}
	case abi.SYS_writeg:
		if h := heapOnly(c); h != nil {
			k.doWriteg(t, h)
		}
	default:
		c.done(-1, abi.ENOSYS)
	}
}

// fdArg reads a descriptor argument; one that names no open descriptor
// fails the call.
func fdArg(t *Task, c call) *Desc {
	d, err := t.lookFd(int(c.num()))
	c.fail(err)
	return d
}

// sockArg reads a descriptor argument that must be a socket.
func sockArg(t *Task, c call) *Socket {
	s, err := t.sockFd(int(c.num()))
	c.fail(err)
	return s
}

// heapOnly returns c's heap-backed form, completing a message-backed c
// with ENOSYS: the grant calls move data through shared memory the
// asynchronous transport does not have.
func heapOnly(c call) *heapCall {
	h, ok := c.(*heapCall)
	if !ok {
		c.done(-1, abi.ENOSYS)
	}
	return h
}

// splitNul splits a NUL-separated packed string list.
func splitNul(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(strings.TrimSuffix(s, "\x00"), "\x00")
}
