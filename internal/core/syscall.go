package core

import (
	"repro/internal/abi"
	"repro/internal/browser"
	"repro/internal/fs"
)

// This file is the kernel's system-call entry (§3.2). A process reaches
// the kernel three ways: an asynchronous "syscall" message (cloned
// arguments, continuation-style reply), a synchronous "sync" message
// (integer arguments into the process's SharedArrayBuffer heap,
// completion via Atomics.notify), or a ring doorbell (any number of
// synchronous call frames behind one message, ring.go). All three
// execute through the one trap-keyed dispatchCall (synccall.go); only
// argument access and result delivery differ, behind call (call.go).

// onWorkerMessage handles every message a process sends the kernel.
func (k *Kernel) onWorkerMessage(t *Task, w *browser.Worker, v browser.Value) {
	if t.state == taskZombie || t.worker != w {
		return // stale message from a replaced or exited image
	}
	m, ok := v.(map[string]browser.Value)
	if !ok {
		return
	}
	switch browser.GetString(m, "type") {
	case "syscall":
		k.AsyncSyscalls.Add(1)
		k.Sys.Sim.Charge(k.CPU.SyscallNs)
		id := browser.GetInt(m, "id")
		name := browser.GetString(m, "name")
		k.SyscallCount[name]++
		c := &msgCall{args: browser.GetArray(m, "args"), reply: func(ret ...browser.Value) {
			if t.worker != w || w.Terminated() {
				return
			}
			w.PostMessage(map[string]browser.Value{
				"type": "reply",
				"id":   id,
				"ret":  ret,
			})
		}}
		if !k.control(t, name, c) {
			k.dispatchCall(t, abi.SyscallTrap(name), c)
		}
	case "sync":
		k.SyncSyscalls.Add(1)
		k.Sys.Sim.Charge(k.CPU.SyscallNs)
		trap := int(browser.GetInt(m, "trap"))
		k.SyscallCount[abi.SyscallName(trap)]++
		args := browser.GetArray(m, "args")
		ia := make([]int64, len(args))
		for i := range args {
			ia[i], _ = toInt(args[i])
		}
		k.dispatchSync(t, trap, ia)
	case "ringbell":
		// Ring-transport doorbell: any number of call frames may be
		// queued behind this one message. Per-call kernel CPU is charged
		// inside the drain; the doorbell itself already paid the
		// postMessage cost.
		k.drainRing(t)
	}
}

// control handles the transport-negotiation messages a runtime sends over
// the async transport. They are not system calls — they set up how later
// calls cross — so they keep their names. It reports whether name was
// one.
func (k *Kernel) control(t *Task, name string, c *msgCall) bool {
	switch name {
	case "personality":
		// Sync-syscall registration (§3.2): heap + return-value offset
		// + wake offset.
		sab := c.sab()
		if sab == nil {
			c.done(-1, abi.EINVAL)
			break
		}
		t.heap, t.retOff, t.waitOff = sab, int(c.num()), int(c.num())
		c.done(0, abi.OK)
	case "ring":
		// Ring-transport negotiation (after personality): request and
		// reply ring regions inside the registered heap.
		reqOff, reqLen, repOff, repLen := c.num(), c.num(), c.num(), c.num()
		if err := k.registerRing(t, reqOff, reqLen, repOff, repLen); err != abi.OK {
			c.done(-1, err)
			break
		}
		c.done(0, abi.OK)
	case "pagepool":
		// Page-pool negotiation (after the ring): the kernel shares its
		// page-cache arena as a SharedArrayBuffer, and the process may
		// issue readg calls answered with page grants against it.
		// Refusal leaves the process on the copy path.
		if k.DisableZeroCopy || t.heap == nil || t.ring == nil {
			c.done(-1, abi.ENOSYS)
			break
		}
		t.pool = true
		c.reply(int64(0), int64(abi.OK), k.pagePoolSAB())
	case "snapcap":
		// Post-boot snapshot capture (internal/snapshot): the process
		// reports its negotiated transport state and the kernel freezes
		// its heap and fd/env/cwd template as the runtime's image.
		k.doSnapcap(t, c)
	case "restore":
		// Clone-boot restore: one combined registration replacing the
		// personality + ring + pagepool negotiation round trips.
		k.doRestore(t, c)
	default:
		return false
	}
	return true
}

// abs resolves a process-relative path against the task's cwd,
// preserving trailing-slash semantics (fs.Abs).
func (t *Task) abs(p string) string { return fs.Abs(t.cwd, p) }

// ---------------------------------------------------------------------------
// Transport-independent operations.
// ---------------------------------------------------------------------------

func (k *Kernel) doPipe2(t *Task) (int, int) {
	r, w := NewPipePair()
	// SIGPIPE goes to the writing process, as on Unix.
	w.(*pipeEnd).sigPipe = func() { k.signalTask(t, abi.SIGPIPE) }
	r.(*pipeEnd).p.onState = k.pollKick
	rfd := t.installFd(NewDesc(r, abi.O_RDONLY, r.(*pipeEnd).String()))
	wfd := t.installFd(NewDesc(w, abi.O_WRONLY, w.(*pipeEnd).String()))
	return rfd, wfd
}

func (k *Kernel) doDup2(t *Task, oldfd, newfd int) abi.Errno {
	d, err := t.lookFd(oldfd)
	if err != abi.OK {
		return err
	}
	if oldfd == newfd {
		return abi.OK
	}
	if _, exists := t.files[newfd]; exists {
		t.closeFd(newfd, func(abi.Errno) {})
	}
	d.Ref()
	t.files[newfd] = d
	return abi.OK
}

func (k *Kernel) doChdir(t *Task, p string, cb func(abi.Errno)) {
	// Store the walker-resolved canonical path, not a lexical cleaning:
	// with symlinks in play the two can name different directories.
	k.FS.Resolve(t.abs(p), func(rp string, st abi.Stat, err abi.Errno) {
		if err != abi.OK {
			cb(err)
			return
		}
		if !st.IsDir() {
			cb(abi.ENOTDIR)
			return
		}
		t.cwd = rp
		cb(abi.OK)
	})
}

// sockFd fetches a descriptor that must be a socket.
func (t *Task) sockFd(fd int) (*Socket, abi.Errno) {
	d, err := t.lookFd(fd)
	if err != abi.OK {
		return nil, err
	}
	s, ok := d.file.(*Socket)
	if !ok {
		return nil, abi.ENOTSOCK
	}
	return s, abi.OK
}

// SyscallTable returns the implemented system calls grouped by class —
// the contents of Figure 3 plus the extensions this reproduction adds
// (marked by the caller as needed).
func SyscallTable() map[string][]string {
	return map[string][]string{
		"Process Management": {"fork", "spawn", "exec", "pipe2", "wait4", "exit", "kill", "signal"},
		"Process Metadata":   {"chdir", "getcwd", "getpid", "getppid"},
		"Sockets":            {"socket", "bind", "getsockname", "listen", "accept", "connect", "poll", "setfl"},
		"Directory IO":       {"readdir", "getdents", "rmdir", "mkdir"},
		"File IO":            {"open", "close", "read", "write", "readv", "writev", "unlink", "llseek", "pread", "pwrite", "dup2", "ftruncate", "fsync", "rename", "symlink"},
		"File Metadata":      {"access", "fstat", "lstat", "stat", "readlink", "utimes"},
	}
}
