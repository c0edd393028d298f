package rt

import (
	"encoding/binary"
	"fmt"

	"repro/internal/abi"
	"repro/internal/browser"
	"repro/internal/posix"
	"repro/internal/sched"
	"repro/internal/snapshot"
)

// workerRT is the process-side Browsix runtime living inside a Web
// Worker: the counterpart of the paper's GopherJS/Emscripten/browser-node
// integrations. It owns the worker's message loop, the outstanding-call
// table (a Browsix process "can have multiple outstanding system calls",
// §4.2), the signal-handler table, and — for em-sync — the shared heap.
type workerRT struct {
	sys  *browser.System
	sim  *sched.Sim
	w    *browser.Worker
	prog *posix.Program
	kind Kind
	cost Cost

	pid  int
	args []string
	env  []string

	nextID   int64
	pending  map[int64]*sched.G
	handlers map[int]func(int)

	// Synchronous-syscall state (em-sync): the heap layout is
	//   [0,4)   wake cell (Atomics.wait/notify)
	//   [8,16)  syscall return value (int64)
	//   [16,20) errno (int32)
	//   [64,..) scratch for string/buffer arguments
	//   [top-2R, top) request + reply rings (when the ring transport
	//                 is negotiated; R = ringRegionSize)
	sync       bool
	heap       *browser.SAB
	scratch    int64
	scratchTop int64 // exclusive upper bound for scratch allocations

	// Ring transport (negotiated with the kernel after personality
	// registration; falls back to the scalar wake-cell path if refused).
	ringOK    bool
	reqRing   abi.Ring
	repRing   abi.Ring
	ringSeq   uint32
	ringStash map[uint32]ringRep

	// Zero-copy read path (negotiated after the ring): the mapped
	// page-cache arena, the leases held per descriptor (oldest first),
	// and the lease returns queued for the next doorbell (lease.go).
	poolOK         bool
	pool           *browser.SAB
	heldLeases     map[int][]abi.PageGrant
	pendingUnlease []uint32
	// Zero-copy write path (rides the same pool mapping): per-descriptor
	// staging slots leased from the kernel with wgalloc; wgOK drops to
	// false for good on the first ENOSYS (writegrant.go).
	wgOK   bool
	wstage map[int]*writeStage
	// ringOutstanding counts pushed frames whose replies have not yet
	// been popped (bounds batches to the reply ring's capacity);
	// inflight counts parked sync/ring calls so only the outermost
	// recycles the scratch region.
	ringOutstanding int
	inflight        int
}

const (
	syncWaitOff    = 0
	syncRetOff     = 8
	scratchBase    = 64
	ringRegionSize = 8 * 1024
)

// exitSentinel unwinds a program coroutine when Exit is called mid-stack.
type exitSentinel struct{ code int }

// bootWorker is the worker script's top-level: it registers onmessage and
// waits for the kernel's init message before running main (§3.3: "BROWSIX-
// enabled runtimes delay execution of a process's main() function until
// after the worker has received an init message").
func bootWorker(sys *browser.System, w *browser.Worker, prog *posix.Program, kind Kind) {
	r := &workerRT{
		sys:        sys,
		sim:        sys.Sim,
		w:          w,
		prog:       prog,
		kind:       kind,
		cost:       CostOf(kind),
		pending:    map[int64]*sched.G{},
		handlers:   map[int]func(int){},
		heldLeases: map[int][]abi.PageGrant{},
		wstage:     map[int]*writeStage{},
		sync:       kind == EmSyncKind || kind == WasmKind,
	}
	w.Ctx.OnMessage = r.onMessage
}

func (r *workerRT) onMessage(v browser.Value) {
	m, ok := v.(map[string]browser.Value)
	if !ok {
		return
	}
	switch browser.GetString(m, "type") {
	case "init":
		r.pid = int(browser.GetInt(m, "pid"))
		r.args = browser.Strings(browser.GetArray(m, "args"))
		r.env = browser.Strings(browser.GetArray(m, "env"))
		forkMem := browser.GetBytes(m, "forkMem")
		forkLabel := browser.GetString(m, "forkLabel")
		img, _ := m["snapimage"].(*snapshot.Image)
		tracker, _ := m["snaptracker"].(*snapshot.Tracker)
		snapCap := browser.GetInt(m, "snapcap") != 0
		if img != nil {
			// Clone boot: fix up the restored snapshot instead of
			// re-running interpreter/stdlib initialization.
			r.sim.Charge(r.cost.RestoreNs)
		} else {
			// Runtime start-up: interpreter/stdlib initialization.
			r.sim.Charge(r.cost.InitNs)
		}
		if r.sync {
			r.heap = browser.NewSAB(r.cost.HeapSize)
			r.scratchTop = int64(r.heap.Len())
		}
		g := r.sim.NewG(r.w.Ctx.Sched(), r.prog.Name, func(any) {
			defer r.recoverExit()
			if r.sync {
				if img != nil && img.HeapLen == r.heap.Len() {
					r.restoreFromImage(img, tracker)
				} else {
					// Register the sync-syscall personality: heap +
					// return/wake offsets (§3.2), via an async call.
					r.asyncCall("personality", r.heap, int64(syncRetOff), int64(syncWaitOff))
					r.negotiateRing()
					r.negotiatePagePool()
					if snapCap {
						r.captureSnapshot()
					}
				}
			} else if img == nil && snapCap {
				r.captureSnapshot()
			}
			var code int
			if forkLabel != "" || len(forkMem) > 0 {
				if r.prog.ResumeFork == nil {
					code = 127
				} else {
					code = r.prog.ResumeFork(r, forkMem, forkLabel)
				}
			} else {
				code = r.prog.Main(r)
			}
			r.sendExit(code)
		})
		r.sim.ResumeG(g, nil)
	case "reply":
		id := browser.GetInt(m, "id")
		g := r.pending[id]
		if g == nil {
			return
		}
		delete(r.pending, id)
		r.sim.ResumeG(g, browser.GetArray(m, "ret"))
	case "signal":
		sig := int(browser.GetInt(m, "sig"))
		h := r.handlers[sig]
		if h == nil {
			return
		}
		// The handler runs as its own event-driven coroutine so it may
		// itself issue system calls while the main program is parked.
		g := r.sim.NewG(r.w.Ctx.Sched(), "sighandler", func(any) {
			defer r.recoverExit()
			h(sig)
		})
		r.sim.ResumeG(g, nil)
	}
}

// recoverExit converts an Exit() unwind (exitSentinel) into the explicit
// exit system call; ErrKilled and real panics propagate.
func (r *workerRT) recoverExit() {
	e := recover()
	switch {
	case e == nil:
	case e == sched.ErrKilled:
		panic(e)
	default:
		if es, ok := e.(exitSentinel); ok {
			r.sendExit(es.code)
			return
		}
		panic(e)
	}
}

// sendExit issues the explicit exit system call every runtime must make
// (§3.3) — no reply is expected; the kernel tears the worker down.
func (r *workerRT) sendExit(code int) {
	r.w.PostToParent(map[string]browser.Value{
		"type": "syscall",
		"id":   int64(-1),
		"name": "exit",
		"args": []browser.Value{int64(code)},
	})
}

// ---------------------------------------------------------------------------
// Asynchronous transport (§3.2): continuation-passing over postMessage.
// The calling coroutine parks; the reply event resumes it. Under the
// Emterpreter the runtime also pays stack unwind/rewind.
// ---------------------------------------------------------------------------

func (r *workerRT) asyncCall(name string, args ...browser.Value) []browser.Value {
	r.sim.Charge(r.cost.SyscallCPUNs)
	if r.cost.UnwindNs > 0 {
		r.sim.Charge(r.cost.UnwindNs)
	}
	id := r.nextID
	r.nextID++
	r.w.PostToParent(map[string]browser.Value{
		"type": "syscall",
		"id":   id,
		"name": name,
		"args": args,
	})
	g := r.sim.CurG()
	if g == nil {
		panic("rt: syscall outside program coroutine")
	}
	r.pending[id] = g
	v := r.sim.Park()
	if r.cost.RewindNs > 0 {
		r.sim.Charge(r.cost.RewindNs)
	}
	ret, _ := v.([]browser.Value)
	return ret
}

// ---------------------------------------------------------------------------
// Synchronous transport (§3.2): integer args via postMessage, blocking
// Atomics.wait on the shared heap, results read back from the heap.
// ---------------------------------------------------------------------------

func (r *workerRT) syncCall(trap int, args ...int64) (int64, abi.Errno) {
	if r.ringOK {
		rets, errs := r.ringCalls([]ringReq{{trap: trap, args: args}})
		return rets[0], errs[0]
	}
	r.sim.Charge(r.cost.SyscallCPUNs)
	vargs := make([]browser.Value, len(args))
	for i, a := range args {
		vargs[i] = a
	}
	r.heap.Store32(syncWaitOff, 0)
	r.w.PostToParent(map[string]browser.Value{
		"type": "sync",
		"trap": int64(trap),
		"args": vargs,
	})
	r.inflight++
	r.sys.FutexWait(r.w.Ctx, r.heap, syncWaitOff, 0, -1)
	r.inflight--
	ret := int64(uint64(r.heap.Load32(syncRetOff)) | uint64(r.heap.Load32(syncRetOff+4))<<32)
	errno := abi.Errno(int32(r.heap.Load32(syncRetOff + 8)))
	if r.inflight == 0 {
		// Only the outermost call recycles scratch: a signal handler's
		// interleaved call must keep allocating above a parked call's
		// staged buffers.
		r.scratch = scratchBase
	}
	return ret, errno
}

// putStr stages a string argument in scratch, returning (ptr, len).
func (r *workerRT) putStr(s string) (int64, int64) {
	ptr := r.alloc(int64(len(s)))
	copy(r.heap.Bytes()[ptr:], s)
	r.heap.MarkDirty(int(ptr), len(s))
	return ptr, int64(len(s))
}

// putBytes stages a buffer in scratch.
func (r *workerRT) putBytes(b []byte) (int64, int64) {
	ptr := r.alloc(int64(len(b)))
	copy(r.heap.Bytes()[ptr:], b)
	r.heap.MarkDirty(int(ptr), len(b))
	return ptr, int64(len(b))
}

// alloc bumps the scratch pointer (reset after each call completes). The
// ring regions at the top of the heap are off limits.
func (r *workerRT) alloc(n int64) int64 {
	if r.scratch < scratchBase {
		r.scratch = scratchBase
	}
	ptr := r.scratch
	if ptr+n > r.scratchTop {
		panic("rt: sync-syscall scratch overflow")
	}
	r.scratch = (ptr + n + 7) &^ 7
	return ptr
}

// scratchFits reports whether n more scratch bytes (plus alignment slack)
// fit below the ring regions.
func (r *workerRT) scratchFits(n int64) bool {
	base := r.scratch
	if base < scratchBase {
		base = scratchBase
	}
	return base+n+8 <= r.scratchTop
}

// maxScratchPayload is the largest single data buffer stageable in the
// scratch region, leaving slack for argument/iovec staging.
func (r *workerRT) maxScratchPayload() int64 {
	m := r.scratchTop - scratchBase - 256
	if m < 0 {
		m = 0
	}
	return m
}

// call issues a system call whose arguments are all inputs — int64, int,
// string, []string or []int — on the process's transport, returning
// (ret, errno). The async transport clones them as they are (lists as
// arrays). The sync transport stages a string in scratch as a (ptr,len)
// pair, a string list NUL-packed the same way, and an int list as int32
// records (ptr,count).
func (r *workerRT) call(trap int, args ...any) (int64, abi.Errno) {
	if !r.sync {
		vals := make([]browser.Value, len(args))
		for i, a := range args {
			switch x := a.(type) {
			case int:
				vals[i] = int64(x)
			case []string:
				vals[i] = browser.StringArray(x)
			case []int:
				fv := make([]browser.Value, len(x))
				for j, n := range x {
					fv[j] = int64(n)
				}
				vals[i] = fv
			case int64, string:
				vals[i] = x
			default:
				panic(fmt.Sprintf("rt: call argument of type %T", a))
			}
		}
		ret := r.asyncCall(abi.SyscallName(trap), vals...)
		return vi(ret, 0), verr(ret)
	}
	ia := make([]int64, 0, 2*len(args))
	for _, a := range args {
		switch x := a.(type) {
		case int:
			ia = append(ia, int64(x))
		case int64:
			ia = append(ia, x)
		case string:
			p, n := r.putStr(x)
			ia = append(ia, p, n)
		case []string:
			p, n := r.putStr(posix.JoinNul(x))
			ia = append(ia, p, n)
		case []int:
			packed := make([]byte, 4*len(x))
			for i, n := range x {
				binary.LittleEndian.PutUint32(packed[i*4:], uint32(int32(n)))
			}
			p, _ := r.putBytes(packed)
			ia = append(ia, p, int64(len(x)))
		default:
			panic(fmt.Sprintf("rt: call argument of type %T", a))
		}
	}
	return r.syncCall(trap, ia...)
}

// ---------------------------------------------------------------------------
// posix.Proc implementation. Every method follows the runtime's
// transport; reply decoding mirrors the kernel's encodings.
// ---------------------------------------------------------------------------

func vi(ret []browser.Value, i int) int64 {
	if i < len(ret) {
		switch x := ret[i].(type) {
		case int64:
			return x
		case int:
			return int64(x)
		case float64:
			return int64(x)
		}
	}
	return 0
}

func verr(ret []browser.Value) abi.Errno { return abi.Errno(vi(ret, 1)) }

func (r *workerRT) Getpid() int { return r.pid }
func (r *workerRT) Getppid() int {
	ret, _ := r.call(abi.SYS_getppid)
	return int(ret)
}
func (r *workerRT) Args() []string    { return r.args }
func (r *workerRT) Environ() []string { return r.env }
func (r *workerRT) Getenv(key string) string {
	return posix.Getenv(r.env, key)
}
func (r *workerRT) Setenv(key, value string) { r.env = posix.SetEnv(r.env, key, value) }

func (r *workerRT) Open(path string, flags int, mode uint32) (int, abi.Errno) {
	ret, err := r.call(abi.SYS_open, path, flags, int64(mode))
	return int(ret), err
}

func (r *workerRT) Close(fd int) abi.Errno {
	if r.sync {
		// Close returns the descriptor's page leases and write-staging
		// slots; the reclaim frames share close's doorbell.
		r.dropFdLeases(fd)
		r.dropFdWriteStage(fd)
		_, err := r.syncCallLeased(abi.SYS_close, int64(fd))
		return err
	}
	return verr(r.asyncCall("close", int64(fd)))
}

func (r *workerRT) Read(fd int, n int) ([]byte, abi.Errno) {
	if r.sync {
		if r.poolOK {
			// Zero-copy path: the grant reply is not bounded by the
			// scratch region — only the copy fallback's staging buffer
			// is, degrading oversized cold reads to short reads.
			bufLen := n
			if max := r.maxScratchPayload(); int64(bufLen) > max {
				bufLen = int(max)
			}
			return r.readLeased(fd, n, bufLen)
		}
		// A request larger than the scratch region degrades to a short
		// read rather than overflowing the staging area.
		if max := r.maxScratchPayload(); int64(n) > max {
			n = int(max)
		}
		ptr := r.alloc(int64(n))
		ret, err := r.syncCall(abi.SYS_read, int64(fd), ptr, int64(n))
		if err != abi.OK {
			return nil, err
		}
		out := make([]byte, ret)
		copy(out, r.heap.Bytes()[ptr:ptr+ret])
		return out, abi.OK
	}
	ret := r.asyncCall("read", int64(fd), int64(n))
	if err := verr(ret); err != abi.OK {
		return nil, err
	}
	if len(ret) > 2 {
		b, _ := ret[2].([]byte)
		return b, abi.OK
	}
	return nil, abi.OK
}

func (r *workerRT) Write(fd int, b []byte) (int, abi.Errno) {
	if r.sync {
		if r.wgOK && len(b) > 0 {
			// Zero-copy path: stage the payload into leased arena slots
			// and submit references — no bytes cross through scratch.
			if n, err, ok := r.writeStaged(fd, b); ok {
				return n, err
			}
		}
		return r.writePlain(fd, b)
	}
	ret := r.asyncCall("write", int64(fd), b)
	return int(vi(ret, 0)), verr(ret)
}

// writePlain is the classic sync write: payload staged through the
// scratch region, one kernel copy out of the heap.
func (r *workerRT) writePlain(fd int, b []byte) (int, abi.Errno) {
	// Buffers larger than the scratch region go out in pieces.
	if max := r.maxScratchPayload(); int64(len(b)) > max {
		if max <= 0 {
			return 0, abi.ENOMEM
		}
		total := 0
		for len(b) > 0 {
			n := len(b)
			if int64(n) > max {
				n = int(max)
			}
			m, err := r.writePlain(fd, b[:n])
			total += m
			if err != abi.OK {
				// Short-write semantics: earlier chunks that landed make
				// this a successful partial write, not an EAGAIN.
				if err == abi.EAGAIN && total > 0 {
					return total, abi.OK
				}
				return total, err
			}
			if m <= 0 {
				return total, abi.EIO
			}
			b = b[m:]
		}
		return total, abi.OK
	}
	ptr, n := r.putBytes(b)
	ret, err := r.syncCall(abi.SYS_write, int64(fd), ptr, n)
	return int(ret), err
}

// Readv reads up to the sum of lens bytes in a single kernel crossing,
// with one blocking point: it returns whatever is immediately available.
func (r *workerRT) Readv(fd int, lens []int) ([][]byte, abi.Errno) {
	total := 0
	for _, n := range lens {
		if n < 0 {
			return nil, abi.EINVAL
		}
		total += n
	}
	if total == 0 {
		return nil, abi.OK
	}
	if !r.sync {
		lv := make([]browser.Value, len(lens))
		for i, n := range lens {
			lv[i] = int64(n)
		}
		ret := r.asyncCall("readv", int64(fd), lv)
		if err := verr(ret); err != abi.OK {
			return nil, err
		}
		var out [][]byte
		if len(ret) > 2 {
			if arr, ok := ret[2].([]browser.Value); ok {
				for _, v := range arr {
					if b, ok := v.([]byte); ok && len(b) > 0 {
						out = append(out, b)
					}
				}
			}
		}
		return out, abi.OK
	}
	if r.poolOK {
		// Zero-copy path: one readg covers the whole vector; the result
		// comes back as a single segment (POSIX-legal — callers scatter
		// the stream themselves), assembled from the pool mapping on a
		// warm hit with no kernel payload copy.
		bufLen := total
		if max := r.maxScratchPayload(); int64(bufLen) > max {
			bufLen = int(max)
		}
		b, err := r.readLeased(fd, total, bufLen)
		if err != abi.OK || len(b) == 0 {
			return nil, err
		}
		return [][]byte{b}, abi.OK
	}
	need := int64(total) + int64(len(lens)+1)*(abi.IovecSize+8)
	if !r.scratchFits(need) {
		// Payload larger than the scratch region: degrade to one scalar
		// read (still POSIX-legal readv behaviour — a short result).
		b, err := r.Read(fd, total)
		if err != abi.OK || len(b) == 0 {
			return nil, err
		}
		return [][]byte{b}, abi.OK
	}
	iovs := make([]abi.Iovec, len(lens))
	for i, n := range lens {
		iovs[i] = abi.Iovec{Ptr: r.alloc(int64(n)), Len: int64(n)}
	}
	ivp := r.alloc(int64(len(iovs) * abi.IovecSize))
	abi.PackIovecs(r.heap.Bytes()[ivp:], iovs)
	r.heap.MarkDirty(int(ivp), len(iovs)*abi.IovecSize)
	ret, err := r.syncCall(abi.SYS_readv, int64(fd), ivp, int64(len(iovs)))
	if err != abi.OK {
		return nil, err
	}
	n := ret
	var out [][]byte
	hb := r.heap.Bytes()
	for _, iov := range iovs {
		if n <= 0 {
			break
		}
		take := iov.Len
		if take > n {
			take = n
		}
		buf := make([]byte, take)
		copy(buf, hb[iov.Ptr:iov.Ptr+take])
		out = append(out, buf)
		n -= take
	}
	return out, abi.OK
}

// Writev writes every buffer in order through a single kernel crossing
// (one writev trap, or one ring doorbell fanning out per-buffer frames).
func (r *workerRT) Writev(fd int, bufs [][]byte) (int64, abi.Errno) {
	nonEmpty := make([][]byte, 0, len(bufs))
	for _, b := range bufs {
		if len(b) > 0 {
			nonEmpty = append(nonEmpty, b)
		}
	}
	if len(nonEmpty) == 0 {
		return 0, abi.OK
	}
	if !r.sync {
		arr := make([]browser.Value, len(nonEmpty))
		for i, b := range nonEmpty {
			arr[i] = b
		}
		ret := r.asyncCall("writev", int64(fd), arr)
		return vi(ret, 0), verr(ret)
	}
	if r.ringOK {
		return r.ringWritev(fd, nonEmpty)
	}
	need := int64(len(nonEmpty)+1) * (abi.IovecSize + 8)
	for _, b := range nonEmpty {
		need += int64(len(b)) + 8
	}
	if !r.scratchFits(need) {
		var total int64
		for _, b := range nonEmpty {
			n, err := r.Write(fd, b)
			total += int64(n)
			if err != abi.OK {
				if total > 0 {
					return total, abi.OK
				}
				return -1, err
			}
		}
		return total, abi.OK
	}
	iovs := make([]abi.Iovec, len(nonEmpty))
	for i, b := range nonEmpty {
		ptr, n := r.putBytes(b)
		iovs[i] = abi.Iovec{Ptr: ptr, Len: n}
	}
	ivp := r.alloc(int64(len(iovs) * abi.IovecSize))
	abi.PackIovecs(r.heap.Bytes()[ivp:], iovs)
	r.heap.MarkDirty(int(ivp), len(iovs)*abi.IovecSize)
	ret, err := r.syncCall(abi.SYS_writev, int64(fd), ivp, int64(len(iovs)))
	if err != abi.OK {
		return -1, err
	}
	return ret, abi.OK
}

func (r *workerRT) Pread(fd int, n int, off int64) ([]byte, abi.Errno) {
	if r.sync {
		ptr := r.alloc(int64(n))
		ret, err := r.syncCall(abi.SYS_pread, int64(fd), ptr, int64(n), off)
		if err != abi.OK {
			return nil, err
		}
		out := make([]byte, ret)
		copy(out, r.heap.Bytes()[ptr:ptr+ret])
		return out, abi.OK
	}
	ret := r.asyncCall("pread", int64(fd), int64(n), off)
	if err := verr(ret); err != abi.OK {
		return nil, err
	}
	if len(ret) > 2 {
		b, _ := ret[2].([]byte)
		return b, abi.OK
	}
	return nil, abi.OK
}

func (r *workerRT) Pwrite(fd int, b []byte, off int64) (int, abi.Errno) {
	if r.sync {
		ptr, n := r.putBytes(b)
		ret, err := r.syncCall(abi.SYS_pwrite, int64(fd), ptr, n, off)
		return int(ret), err
	}
	ret := r.asyncCall("pwrite", int64(fd), b, off)
	return int(vi(ret, 0)), verr(ret)
}

func (r *workerRT) Seek(fd int, off int64, whence int) (int64, abi.Errno) {
	if r.sync {
		// Seeking away returns the descriptor's page leases (they were
		// retained for the sequential window the seek abandons); the
		// reclaim frames share the seek's doorbell.
		r.dropFdLeases(fd)
		return r.syncCallLeased(abi.SYS_llseek, int64(fd), off, int64(whence))
	}
	ret := r.asyncCall("llseek", int64(fd), off, int64(whence))
	return vi(ret, 0), verr(ret)
}

func (r *workerRT) Ftruncate(fd int, size int64) abi.Errno {
	_, err := r.call(abi.SYS_ftruncate, fd, size)
	return err
}

func (r *workerRT) Fsync(fd int) abi.Errno {
	_, err := r.call(abi.SYS_fsync, fd)
	return err
}

func (r *workerRT) Dup2(oldfd, newfd int) abi.Errno {
	if r.sync {
		// newfd is implicitly closed: its held leases and staging
		// slots go back.
		if oldfd != newfd {
			r.dropFdLeases(newfd)
			r.dropFdWriteStage(newfd)
		}
		_, err := r.syncCallLeased(abi.SYS_dup2, int64(oldfd), int64(newfd))
		return err
	}
	return verr(r.asyncCall("dup2", int64(oldfd), int64(newfd)))
}

func (r *workerRT) statCall(trap int, path string) (abi.Stat, abi.Errno) {
	if r.sync {
		p, n := r.putStr(path)
		sp := r.alloc(abi.StatSize)
		_, err := r.syncCall(trap, p, n, sp)
		if err != abi.OK {
			return abi.Stat{}, err
		}
		return abi.UnpackStat(r.heap.Bytes()[sp : sp+abi.StatSize]), abi.OK
	}
	ret := r.asyncCall(abi.SyscallName(trap), path)
	if err := verr(ret); err != abi.OK {
		return abi.Stat{}, err
	}
	if len(ret) > 2 {
		if m, ok := ret[2].(map[string]browser.Value); ok {
			return abi.StatFromMap(m), abi.OK
		}
	}
	return abi.Stat{}, abi.EIO
}

func (r *workerRT) Stat(path string) (abi.Stat, abi.Errno) {
	return r.statCall(abi.SYS_stat, path)
}
func (r *workerRT) Lstat(path string) (abi.Stat, abi.Errno) {
	return r.statCall(abi.SYS_lstat, path)
}

// StatBatchAmortized implements posix.StatBatchAmortizer: only the ring
// transport turns a StatBatch into one doorbell; scalar and async pay
// one round trip per path, so probe loops should early-exit there.
func (r *workerRT) StatBatchAmortized() bool { return r.sync && r.ringOK }

// StatBatch fans a stat storm out as ring call frames sharing one
// doorbell: the kernel drains them as a single batch, resolves the run
// against the dentry cache in one pass, and answers with one notify.
// Without the ring (scalar or async transport) it degrades to one stat
// per call, preserving identical results.
func (r *workerRT) StatBatch(paths []string, lstat bool) ([]abi.Stat, []abi.Errno) {
	sts := make([]abi.Stat, len(paths))
	errs := make([]abi.Errno, len(paths))
	one := func(p string) (abi.Stat, abi.Errno) {
		if lstat {
			return r.Lstat(p)
		}
		return r.Stat(p)
	}
	trap := abi.SYS_stat
	if lstat {
		trap = abi.SYS_lstat
	}
	if !r.sync || !r.ringOK {
		for i, p := range paths {
			sts[i], errs[i] = one(p)
		}
		return sts, errs
	}
	i := 0
	for i < len(paths) {
		// Stage what fits in the scratch region, one sub-batch per
		// doorbell.
		var reqs []ringReq
		var bufs []int64
		j := i
		for ; j < len(paths); j++ {
			if !r.scratchFits(int64(len(paths[j])) + abi.StatSize + 32) {
				break
			}
			p, n := r.putStr(paths[j])
			sp := r.alloc(abi.StatSize)
			reqs = append(reqs, ringReq{trap: trap, args: []int64{p, n, sp}})
			bufs = append(bufs, sp)
		}
		if len(reqs) == 0 {
			// Scratch exhausted by a pathological name: degrade to the
			// scalar call for this one and continue batching after.
			sts[i], errs[i] = one(paths[i])
			i++
			continue
		}
		_, rerrs := r.ringCalls(reqs)
		hb := r.heap.Bytes()
		for k := range reqs {
			errs[i+k] = rerrs[k]
			if rerrs[k] == abi.OK {
				sts[i+k] = abi.UnpackStat(hb[bufs[k] : bufs[k]+abi.StatSize])
			}
		}
		i = j
	}
	return sts, errs
}

func (r *workerRT) Fstat(fd int) (abi.Stat, abi.Errno) {
	if r.sync {
		sp := r.alloc(abi.StatSize)
		_, err := r.syncCall(abi.SYS_fstat, int64(fd), sp)
		if err != abi.OK {
			return abi.Stat{}, err
		}
		return abi.UnpackStat(r.heap.Bytes()[sp : sp+abi.StatSize]), abi.OK
	}
	ret := r.asyncCall("fstat", int64(fd))
	if err := verr(ret); err != abi.OK {
		return abi.Stat{}, err
	}
	if len(ret) > 2 {
		if m, ok := ret[2].(map[string]browser.Value); ok {
			return abi.StatFromMap(m), abi.OK
		}
	}
	return abi.Stat{}, abi.EIO
}

func (r *workerRT) Access(path string, mode int) abi.Errno {
	_, err := r.call(abi.SYS_access, path, mode)
	return err
}

func (r *workerRT) Readlink(path string) (string, abi.Errno) {
	if r.sync {
		p, n := r.putStr(path)
		bp := r.alloc(4096)
		ret, err := r.syncCall(abi.SYS_readlink, p, n, bp, 4096)
		if err != abi.OK {
			return "", err
		}
		return string(r.heap.Bytes()[bp : bp+ret]), abi.OK
	}
	ret := r.asyncCall("readlink", path)
	if err := verr(ret); err != abi.OK {
		return "", err
	}
	s, _ := ret[2].(string)
	return s, abi.OK
}

func (r *workerRT) Utimes(path string, atime, mtime int64) abi.Errno {
	_, err := r.call(abi.SYS_utimes, path, atime, mtime)
	return err
}

func (r *workerRT) Mkdir(path string, mode uint32) abi.Errno {
	_, err := r.call(abi.SYS_mkdir, path, int64(mode))
	return err
}

func (r *workerRT) Rmdir(path string) abi.Errno {
	_, err := r.call(abi.SYS_rmdir, path)
	return err
}

func (r *workerRT) Unlink(path string) abi.Errno {
	_, err := r.call(abi.SYS_unlink, path)
	return err
}

func (r *workerRT) Rename(oldp, newp string) abi.Errno {
	_, err := r.call(abi.SYS_rename, oldp, newp)
	return err
}

func (r *workerRT) Symlink(target, link string) abi.Errno {
	_, err := r.call(abi.SYS_symlink, target, link)
	return err
}

func (r *workerRT) Getdents(fd int) ([]abi.Dirent, abi.Errno) {
	if r.sync {
		const bufLen = 64 * 1024
		bp := r.alloc(bufLen)
		ret, err := r.syncCall(abi.SYS_getdents, int64(fd), bp, bufLen)
		if err != abi.OK {
			return nil, err
		}
		return abi.UnpackDirents(r.heap.Bytes()[bp : bp+ret]), abi.OK
	}
	ret := r.asyncCall("getdents", int64(fd))
	if err := verr(ret); err != abi.OK {
		return nil, err
	}
	var out []abi.Dirent
	if len(ret) > 2 {
		if arr, ok := ret[2].([]browser.Value); ok {
			for _, v := range arr {
				if m, ok := v.(map[string]browser.Value); ok {
					out = append(out, abi.DirentFromMap(m))
				}
			}
		}
	}
	return out, abi.OK
}

func (r *workerRT) Chdir(path string) abi.Errno {
	_, err := r.call(abi.SYS_chdir, path)
	return err
}

func (r *workerRT) Getcwd() (string, abi.Errno) {
	if r.sync {
		bp := r.alloc(4096)
		ret, err := r.syncCall(abi.SYS_getcwd, bp, 4096)
		if err != abi.OK {
			return "", err
		}
		return string(r.heap.Bytes()[bp : bp+ret]), abi.OK
	}
	ret := r.asyncCall("getcwd")
	if err := verr(ret); err != abi.OK {
		return "", err
	}
	s, _ := ret[2].(string)
	return s, abi.OK
}

func (r *workerRT) Pipe() (int, int, abi.Errno) {
	if r.sync {
		fp := r.alloc(8)
		_, err := r.syncCall(abi.SYS_pipe2, fp)
		if err != abi.OK {
			return -1, -1, err
		}
		b := r.heap.Bytes()
		rfd := int(int32(uint32(b[fp]) | uint32(b[fp+1])<<8 | uint32(b[fp+2])<<16 | uint32(b[fp+3])<<24))
		wfd := int(int32(uint32(b[fp+4]) | uint32(b[fp+5])<<8 | uint32(b[fp+6])<<16 | uint32(b[fp+7])<<24))
		return rfd, wfd, abi.OK
	}
	ret := r.asyncCall("pipe2", int64(0))
	if err := verr(ret); err != abi.OK {
		return -1, -1, err
	}
	return int(vi(ret, 2)), int(vi(ret, 3)), abi.OK
}

func (r *workerRT) Spawn(path string, argv, env []string, files []int) (int, abi.Errno) {
	ret, err := r.call(abi.SYS_spawn, path, argv, env, files)
	return int(ret), err
}

func (r *workerRT) Fork(label string, mem []byte) (int, abi.Errno) {
	if !r.kind.SupportsFork() {
		// §3.2: fork is an asynchronous-only call, and only the
		// Emterpreter runtime can serialize its state.
		return -1, abi.ENOSYS
	}
	ret := r.asyncCall("fork", mem, label)
	return int(vi(ret, 0)), verr(ret)
}

func (r *workerRT) Exec(path string, argv, env []string) abi.Errno {
	_, err := r.call(abi.SYS_exec, path, argv, env)
	return err
}

func (r *workerRT) Wait4(pid int, options int) (int, int, abi.Errno) {
	if r.sync {
		sp := r.alloc(4)
		ret, err := r.syncCall(abi.SYS_wait4, int64(pid), sp, int64(options))
		if err != abi.OK {
			return 0, 0, err
		}
		b := r.heap.Bytes()
		status := int(int32(uint32(b[sp]) | uint32(b[sp+1])<<8 | uint32(b[sp+2])<<16 | uint32(b[sp+3])<<24))
		return int(ret), status, abi.OK
	}
	ret := r.asyncCall("wait4", int64(pid), int64(options))
	if err := verr(ret); err != abi.OK {
		return 0, 0, err
	}
	return int(vi(ret, 0)), int(vi(ret, 2)), abi.OK
}

func (r *workerRT) Exit(code int) {
	panic(exitSentinel{code})
}

func (r *workerRT) Kill(pid, sig int) abi.Errno {
	_, err := r.call(abi.SYS_kill, pid, sig)
	return err
}

func (r *workerRT) Signal(sig int, handler func(int)) abi.Errno {
	action := 1
	if handler == nil {
		action = 0
	}
	if _, err := r.call(abi.SYS_signal, sig, action); err != abi.OK {
		return err
	}
	if handler == nil {
		delete(r.handlers, sig)
	} else {
		r.handlers[sig] = handler
	}
	return abi.OK
}

func (r *workerRT) Socket() (int, abi.Errno) {
	ret, err := r.call(abi.SYS_socket)
	return int(ret), err
}

func (r *workerRT) Bind(fd, port int) abi.Errno {
	_, err := r.call(abi.SYS_bind, fd, port)
	return err
}

func (r *workerRT) Listen(fd, backlog int) abi.Errno {
	_, err := r.call(abi.SYS_listen, fd, backlog)
	return err
}

func (r *workerRT) Connect(fd, port int) abi.Errno {
	_, err := r.call(abi.SYS_connect, fd, port)
	return err
}

func (r *workerRT) Accept(fd int) (int, abi.Errno) {
	ret, err := r.call(abi.SYS_accept, fd)
	return int(ret), err
}

func (r *workerRT) Getsockname(fd int) (int, abi.Errno) {
	ret, err := r.call(abi.SYS_getsockname, fd)
	return int(ret), err
}

// AcceptBatch drains the listener backlog as non-blocking accepts. On
// the ring transport all max accept frames share ONE doorbell (the same
// shape as StatBatch): the kernel drains the run in a single batch pass
// and answers with one notify, so an accept storm costs one crossing.
// Scalar and async transports degrade to one accept per round trip,
// stopping at the first EAGAIN.
func (r *workerRT) AcceptBatch(fd, max int) ([]int, abi.Errno) {
	if max <= 0 {
		return nil, abi.OK
	}
	if r.sync && r.ringOK {
		reqs := make([]ringReq, max)
		for i := range reqs {
			reqs[i] = ringReq{trap: abi.SYS_accept, args: []int64{int64(fd), int64(abi.O_NONBLOCK)}}
		}
		rets, errs := r.ringCalls(reqs)
		var fds []int
		for i := range rets {
			if errs[i] != abi.OK {
				if errs[i] == abi.EAGAIN || len(fds) > 0 {
					break
				}
				return nil, errs[i]
			}
			fds = append(fds, int(rets[i]))
		}
		return fds, abi.OK
	}
	var fds []int
	for len(fds) < max {
		ret, err := r.call(abi.SYS_accept, fd, abi.O_NONBLOCK)
		if err != abi.OK {
			if err == abi.EAGAIN || len(fds) > 0 {
				break
			}
			return nil, err
		}
		fds = append(fds, int(ret))
	}
	return fds, abi.OK
}

// Poll stages the pollfd array in scratch (sync) or as a flat
// [fd, events, ...] argument list (async); revents travel back through
// the shared heap or the reply array and are written into fds in place.
func (r *workerRT) Poll(fds []abi.Pollfd, timeoutNs int64) (int, abi.Errno) {
	if len(fds) == 0 {
		return 0, abi.EINVAL
	}
	if r.sync {
		buf := make([]byte, len(fds)*abi.PollfdSize)
		abi.PackPollfds(buf, fds)
		ptr, blen := r.putBytes(buf)
		ret, err := r.syncCall(abi.SYS_poll, ptr, int64(len(fds)), timeoutNs)
		if err != abi.OK {
			return int(ret), err
		}
		got := abi.UnpackPollfds(r.heap.Bytes()[ptr:ptr+blen], len(fds))
		for i := range fds {
			fds[i].Revents = got[i].Revents
		}
		return int(ret), abi.OK
	}
	raw := make([]browser.Value, 0, len(fds)*2)
	for _, f := range fds {
		raw = append(raw, int64(f.Fd), int64(f.Events))
	}
	ret := r.asyncCall("poll", raw, timeoutNs)
	if err := verr(ret); err != abi.OK {
		return int(vi(ret, 0)), err
	}
	if len(ret) > 2 {
		if arr, ok := ret[2].([]browser.Value); ok {
			for i := range fds {
				fds[i].Revents = 0
				if i < len(arr) {
					if v, ok := arr[i].(int64); ok {
						fds[i].Revents = uint32(v)
					}
				}
			}
		}
	}
	return int(vi(ret, 0)), abi.OK
}

func (r *workerRT) Setfl(fd, flags int) abi.Errno {
	_, err := r.call(abi.SYS_setfl, fd, flags)
	return err
}

func (r *workerRT) CPU(ns int64) {
	r.sim.Charge(int64(float64(ns) * r.cost.Mult))
}

func (r *workerRT) CPU64(ns int64) {
	r.sim.Charge(int64(float64(ns) * r.cost.Int64Mult))
}

func (r *workerRT) RuntimeName() string { return string(r.kind) }
