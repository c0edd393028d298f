package core

import (
	"repro/internal/abi"
	"repro/internal/fs"
)

// Kernel side of the shared-memory ring-buffer syscall transport.
//
// A sync-transport process may upgrade from per-call postMessages to a
// pair of rings carved out of its registered heap: it pushes call frames
// into the request ring, rings a doorbell (one postMessage, regardless of
// how many frames are queued), and Atomics.waits on its wake cell. The
// kernel drains the whole request ring in a single dispatch, pushes reply
// frames into the reply ring as calls complete, and wakes the process once
// per batch — so a task draining a ready pipe completes several system
// calls per kernel dispatch instead of paying a message round trip each.
//
// Calls whose completion is deferred (a read against an empty pipe) reply
// out of order; frames carry sequence numbers so the process can match
// them. The scalar sync transport remains as the fallback for kernels or
// processes that don't negotiate the ring (Kernel.DisableRing).

// taskRing is the per-task transport state.
type taskRing struct {
	req abi.Ring // process -> kernel call frames
	rep abi.Ring // kernel -> process reply frames

	// Registered heap offsets of the two regions. The checkpoint path
	// needs them: ring pages are written through retained views that
	// bypass the heap's dirty-tracking barriers, so a final stop-copy
	// must always re-copy them.
	reqOff, reqLen, repOff, repLen int64

	draining bool        // inside drainRing's dispatch loop
	dirty    bool        // replies pushed since the last wake
	overflow []ringReply // replies that did not fit the reply ring
}

type ringReply struct {
	seq uint32
	ret int64
	err abi.Errno
}

// registerRing validates and installs a task's ring regions (the "ring"
// registration call). Both regions must lie inside the registered heap.
func (k *Kernel) registerRing(t *Task, reqOff, reqLen, repOff, repLen int64) abi.Errno {
	if k.DisableRing {
		return abi.ENOSYS
	}
	if t.heap == nil {
		return abi.EINVAL
	}
	hlen := int64(t.heap.Len())
	ok := func(off, n int64) bool {
		return off >= 0 && n >= abi.MinRingSize && off+n <= hlen
	}
	if !ok(reqOff, reqLen) || !ok(repOff, repLen) {
		return abi.EINVAL
	}
	b := t.heap.Bytes()
	t.ring = &taskRing{
		req:    abi.NewRing(b[reqOff : reqOff+reqLen]),
		rep:    abi.NewRing(b[repOff : repOff+repLen]),
		reqOff: reqOff, reqLen: reqLen, repOff: repOff, repLen: repLen,
	}
	return abi.OK
}

// drainRing services a doorbell: pop every queued call frame first, hand
// the whole batch to the fs-aware batch dispatcher, then land the
// completions that happened inside the batch with one batched-reply push
// and wake the process exactly once. Frame-by-frame dispatch (pop one,
// dispatch one) is gone: a doorbell carrying a stat storm reaches the
// file system as a single batch.
func (k *Kernel) drainRing(t *Task) {
	r := t.ring
	if r == nil || t.heap == nil || t.state == taskZombie {
		return
	}
	var calls []pendingCall
	for {
		seq, trap, args, ok := r.req.PopCall()
		if !ok {
			break
		}
		k.SyncSyscalls.Add(1)
		k.RingSyscalls.Add(1)
		k.Sys.Sim.Charge(k.CPU.SyscallNs)
		k.SyscallCount[abi.SyscallName(trap)]++
		calls = append(calls, pendingCall{seq: seq, trap: trap, args: args})
	}
	if len(calls) > 1 {
		k.RingBatchedCalls.Add(int64(len(calls) - 1))
	}
	r.draining = true
	var batched []abi.Reply
	// inBatch is per-invocation, NOT the shared r.draining flag: a call
	// from THIS drain that blocks may complete during a later drain of
	// the same ring (a signal handler's interleaved batch unblocking a
	// parked read); its reply must go through ringReply then, not into
	// this drain's already-flushed batch slice.
	inBatch := true
	k.dispatchBatch(t, calls, func(seq uint32, ret int64, err abi.Errno) {
		if inBatch {
			// Completed inside the batch: collect for one framing pass.
			batched = append(batched, abi.Reply{Seq: seq, Ret: ret, Errno: err})
			return
		}
		// Late completion (the call blocked): reply-and-wake immediately.
		k.ringReply(t, seq, ret, err)
	})
	inBatch = false
	r.draining = false
	if len(batched) > 0 && t.ring == r && t.heap != nil && t.state != taskZombie {
		// Batched-reply framing: every same-dispatch completion lands in
		// one PushReplies pass; what does not fit queues in arrival order
		// behind any existing overflow.
		n := 0
		if len(r.overflow) == 0 {
			n = r.rep.PushReplies(batched)
		}
		for _, rep := range batched[n:] {
			r.overflow = append(r.overflow, ringReply{rep.Seq, rep.Ret, rep.Errno})
		}
		r.dirty = true
	}
	k.flushRingWake(t)
}

// pendingCall is one popped, not-yet-dispatched ring call frame.
type pendingCall struct {
	seq  uint32
	trap int
	args []int64
}

// batchableCall reports whether a frame joins an fs metadata batch: the
// path-lookup calls a probe storm is made of — stat/lstat/access, plus
// readlink and *plain read-only* open (shell PATH probing interleaves
// those with its stats; creating or truncating opens have side effects
// that must dispatch individually, in order).
func batchableCall(c pendingCall) bool {
	switch c.trap {
	case abi.SYS_stat, abi.SYS_lstat, abi.SYS_access, abi.SYS_readlink:
		return true
	case abi.SYS_open:
		var flags int64
		if len(c.args) > 2 {
			flags = c.args[2]
		}
		return flags&(abi.O_ACCMODE|abi.O_CREAT|abi.O_TRUNC|abi.O_APPEND) == abi.O_RDONLY
	}
	return false
}

// dispatchBatch executes a batch of call frames. Runs of two or more
// consecutive fs metadata calls resolve through FS.MetaBatch — one pass
// against the dentry cache for the whole run — and everything else goes
// through the transport-independent dispatchCall. The scalar transport
// enters here with batch size 1 (dispatchSync), and a lone path lookup on
// any transport is a MetaBatch of one, so all three transports execute
// identical file-system code.
func (k *Kernel) dispatchBatch(t *Task, calls []pendingCall, done func(seq uint32, ret int64, err abi.Errno)) {
	i := 0
	for i < len(calls) {
		if !k.DisableFSBatch && batchableCall(calls[i]) {
			j := i + 1
			for j < len(calls) && batchableCall(calls[j]) {
				j++
			}
			if j-i > 1 {
				k.dispatchMetaRun(t, calls[i:j], done)
				i = j
				continue
			}
		}
		if !k.DisableFSBatch && calls[i].trap == abi.SYS_readg {
			// A drained doorbell carrying a run of grant-reads against
			// one descriptor resolves with a single vectored cache pass
			// (dispatchReadgRun) — data-plane batching past metadata.
			fd := int64(-1)
			if len(calls[i].args) > 0 {
				fd = calls[i].args[0]
			}
			j := i + 1
			for j < len(calls) && calls[j].trap == abi.SYS_readg &&
				len(calls[j].args) > 0 && calls[j].args[0] == fd {
				j++
			}
			if j-i > 1 {
				k.dispatchReadgRun(t, calls[i:j], done)
				i = j
				continue
			}
		}
		k.dispatchCall(t, calls[i].trap, t.frameCall(calls[i], done))
		i++
	}
}

// dispatchMetaRun resolves a run of stat/lstat/access/readlink/open
// frames with a single FS.MetaBatch call — one dentry cache pass for the
// whole run — decoding and completing each frame exactly as a lone
// dispatchCall does.
func (k *Kernel) dispatchMetaRun(t *Task, run []pendingCall, done func(uint32, int64, abi.Errno)) {
	ms := make([]metaCall, len(run))
	for i, c := range run {
		ms[i] = k.decodeMeta(t, c.trap, t.frameCall(c, done))
	}
	k.FSBatchedCalls.Add(int64(len(run)))
	k.resolveMeta(t, ms)
}

// metaCall is a decoded path-lookup call: the FS.MetaBatch element it
// resolves through, where its result lands, and any failure found before
// resolution.
type metaCall struct {
	c   call
	req fs.MetaReq
	out dst
	err abi.Errno
}

// decodeMeta reads a stat, lstat, access, readlink or open call.
func (k *Kernel) decodeMeta(t *Task, trap int, c call) metaCall {
	m := metaCall{c: c, req: fs.MetaReq{Path: t.abs(c.str())}}
	switch trap {
	case abi.SYS_stat:
		m.req.Kind, m.out = fs.MetaStat, c.out(abi.StatSize)
	case abi.SYS_lstat:
		m.req.Kind, m.out = fs.MetaLstat, c.out(abi.StatSize)
	case abi.SYS_access:
		m.req.Kind = fs.MetaAccess
		c.num() // mode: FS.Access checks existence only
	case abi.SYS_readlink:
		// The buffer is checked before the path resolves, so a bad
		// length fails the same way alone and batched.
		m.req.Kind, m.out = fs.MetaReadlink, c.outBuf()
	case abi.SYS_open:
		m.req.Kind = fs.MetaOpen
		m.req.Flags, m.req.Mode = int(c.num()), uint32(c.num())
	}
	m.err = c.bad()
	return m
}

// resolveMeta resolves decoded path-lookup calls through one
// FS.MetaBatch and completes them in order. A lone call is a batch of
// one, which walks exactly as FS.Stat/Readlink/Open would.
func (k *Kernel) resolveMeta(t *Task, ms []metaCall) {
	reqs := make([]fs.MetaReq, 0, len(ms))
	for _, m := range ms {
		if m.err == abi.OK {
			reqs = append(reqs, m.req)
		}
	}
	k.FS.MetaBatch(reqs, func(res []fs.MetaRes) {
		for _, m := range ms {
			if m.err != abi.OK {
				m.c.done(-1, m.err)
				continue
			}
			k.completeMeta(t, m, res[0])
			res = res[1:]
		}
	})
}

// completeMeta delivers one resolved path-lookup call's result.
func (k *Kernel) completeMeta(t *Task, m metaCall, r fs.MetaRes) {
	switch m.req.Kind {
	case fs.MetaStat, fs.MetaLstat:
		m.c.replyStat(m.out, r.St, r.Err)
	case fs.MetaAccess:
		m.c.done(0, r.Err)
	case fs.MetaReadlink:
		if int64(len(r.Target)) > m.out.len {
			r.Target = r.Target[:m.out.len]
		}
		m.c.replyStr(m.out, r.Target, r.Err)
	case fs.MetaOpen:
		if r.Err != abi.OK {
			m.c.done(-1, r.Err)
			return
		}
		// fs.metaOpen made the open split: a nil handle is a directory.
		var f File = &dirFile{fs: k.FS, path: m.req.Path}
		if r.Handle != nil {
			f = newFSFile(r.Handle, m.req.Flags)
		}
		m.c.done(int64(t.installFd(NewDesc(f, m.req.Flags, m.req.Path))), abi.OK)
	}
}

// ringReply queues one completion into the reply ring. During a drain
// batch the wake is deferred so the whole batch costs one notify; late
// completions (calls that blocked) wake immediately.
func (k *Kernel) ringReply(t *Task, seq uint32, ret int64, err abi.Errno) {
	r := t.ring
	if r == nil || t.heap == nil || t.state == taskZombie {
		return
	}
	if len(r.overflow) > 0 || !r.rep.PushReply(seq, ret, err) {
		r.overflow = append(r.overflow, ringReply{seq, ret, err})
	}
	r.dirty = true
	if !r.draining {
		k.flushRingWake(t)
	}
}

// flushRingWake drains any overflow replies into the ring and wakes the
// process if new replies are waiting.
func (k *Kernel) flushRingWake(t *Task) {
	r := t.ring
	if r == nil || t.heap == nil || t.state == taskZombie {
		return
	}
	for len(r.overflow) > 0 {
		o := r.overflow[0]
		if !r.rep.PushReply(o.seq, o.ret, o.err) {
			break
		}
		r.overflow = r.overflow[1:]
	}
	if !r.dirty {
		return
	}
	r.dirty = false
	k.RingNotifies.Add(1)
	t.heap.Store32(t.waitOff, 1)
	k.Sys.FutexNotify(t.heap, t.waitOff, 1)
}
