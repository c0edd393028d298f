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
			r.heap = r.sys.NewHeap(r.w, r.cost.HeapSize)
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

// Output slots for call, mirroring the kernel's call accessors
// (core/call.go): each names where a result lands and how that crosses.
type (
	// readBuf is a read destination of n bytes (buf): its length
	// crosses on both transports, and sync stages it in scratch.
	readBuf int
	// outBuf is a result buffer of n bytes (outBuf): sync stages it and
	// sends (ptr, n); a message reply is unbounded, so async sends
	// nothing.
	outBuf int
	// outRec is a fixed-size result record (out): sync stages it and
	// sends its pointer; async sends nothing.
	outRec int
)

// call issues a system call on the process's transport. Inputs are
// int64, int, string, []byte, []string, []int or []abi.Pollfd; outputs
// are at most one readBuf, outBuf or outRec (a pollfd array doubles as
// its revents' destination). The async transport clones inputs as they
// are (lists as arrays, pollfds as flat [fd, events, ...]). The sync
// transport stages a string or buffer in scratch as a (ptr,len) pair, a
// string list NUL-packed the same way, an int list as int32 records and
// pollfds as packed records (ptr,count), in argument order. The reply's
// decoders mirror the kernel's reply encodings.
func (r *workerRT) call(trap int, args ...any) reply {
	if !r.sync {
		vals := make([]browser.Value, 0, len(args))
		for _, a := range args {
			switch x := a.(type) {
			case int:
				vals = append(vals, int64(x))
			case readBuf:
				vals = append(vals, int64(x))
			case outBuf, outRec:
				// The reply carries the result itself.
			case []string:
				vals = append(vals, browser.StringArray(x))
			case []int:
				fv := make([]browser.Value, len(x))
				for j, n := range x {
					fv[j] = int64(n)
				}
				vals = append(vals, fv)
			case []abi.Pollfd:
				fv := make([]browser.Value, 0, 2*len(x))
				for _, f := range x {
					fv = append(fv, int64(f.Fd), int64(f.Events))
				}
				vals = append(vals, fv)
			case int64, string, []byte:
				vals = append(vals, x)
			default:
				panic(fmt.Sprintf("rt: call argument of type %T", a))
			}
		}
		ret := r.asyncCall(abi.SyscallName(trap), vals...)
		p := reply{ret: vi(ret, 0), err: verr(ret)}
		if len(ret) > 2 {
			p.extra = ret[2:]
		}
		return p
	}
	ia := make([]int64, 0, 2*len(args))
	var out, outLen int64
	for _, a := range args {
		switch x := a.(type) {
		case int:
			ia = append(ia, int64(x))
		case int64:
			ia = append(ia, x)
		case string:
			p, n := r.putStr(x)
			ia = append(ia, p, n)
		case []byte:
			p, n := r.putBytes(x)
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
		case []abi.Pollfd:
			packed := make([]byte, len(x)*abi.PollfdSize)
			abi.PackPollfds(packed, x)
			out, outLen = r.putBytes(packed)
			ia = append(ia, out, int64(len(x)))
		case readBuf:
			out, outLen = r.alloc(int64(x)), int64(x)
			ia = append(ia, out, outLen)
		case outBuf:
			out, outLen = r.alloc(int64(x)), int64(x)
			ia = append(ia, out, outLen)
		case outRec:
			out, outLen = r.alloc(int64(x)), int64(x)
			ia = append(ia, out)
		default:
			panic(fmt.Sprintf("rt: call argument of type %T", a))
		}
	}
	ret, err := r.syncCall(trap, ia...)
	return reply{sync: true, ret: ret, err: err, out: r.heap.Bytes()[out : out+outLen]}
}

// reply is a completed call: (ret, errno) plus the result the kernel
// delivered — the message reply's values past (ret, errno), or the heap
// bytes of the call's output slot. Decode it before the next call reuses
// scratch.
type reply struct {
	sync  bool
	ret   int64
	err   abi.Errno
	extra []browser.Value
	out   []byte
}

func (p reply) num() (int, abi.Errno) { return int(p.ret), p.err }

func (p reply) extraAt(i int) browser.Value {
	if i < len(p.extra) {
		return p.extra[i]
	}
	return nil
}

// data decodes replyData: the bytes read, landed in dst (see into).
func (p reply) data(dst []byte) ([]byte, abi.Errno) {
	if p.err != abi.OK {
		return nil, p.err
	}
	if !p.sync {
		b, _ := p.extraAt(0).([]byte)
		if dst == nil {
			return b, abi.OK
		}
		return dst[:copy(dst, b)], abi.OK
	}
	out := into(dst, int(p.ret))
	copy(out, p.out)
	return out, abi.OK
}

// into is where a read of n bytes lands: the caller's buffer dst (which
// the read request never exceeds), or a fresh n-byte slice when dst is
// nil.
func into(dst []byte, n int) []byte {
	if dst == nil {
		return make([]byte, n)
	}
	return dst[:n]
}

// str decodes replyStr.
func (p reply) str() (string, abi.Errno) {
	if p.err != abi.OK {
		return "", p.err
	}
	if !p.sync {
		s, _ := p.extraAt(0).(string)
		return s, abi.OK
	}
	return string(p.out[:p.ret]), abi.OK
}

// stat decodes replyStat.
func (p reply) stat() (abi.Stat, abi.Errno) {
	if p.err != abi.OK {
		return abi.Stat{}, p.err
	}
	if !p.sync {
		m, ok := p.extraAt(0).(map[string]browser.Value)
		if !ok {
			return abi.Stat{}, abi.EIO
		}
		return abi.StatFromMap(m), abi.OK
	}
	return abi.UnpackStat(p.out), abi.OK
}

// dirents decodes replyDirents.
func (p reply) dirents() ([]abi.Dirent, abi.Errno) {
	if p.err != abi.OK {
		return nil, p.err
	}
	if p.sync {
		return abi.UnpackDirents(p.out[:p.ret]), abi.OK
	}
	arr, _ := p.extraAt(0).([]browser.Value)
	var out []abi.Dirent
	for _, v := range arr {
		if m, ok := v.(map[string]browser.Value); ok {
			out = append(out, abi.DirentFromMap(m))
		}
	}
	return out, abi.OK
}

// int32At reads the little-endian int32 at off in the output slot.
func (p reply) int32At(off int) int {
	return int(int32(binary.LittleEndian.Uint32(p.out[off:])))
}

// pipe decodes replyPipe: the read and write descriptors.
func (p reply) pipe() (int, int, abi.Errno) {
	if p.err != abi.OK {
		return -1, -1, p.err
	}
	if p.sync {
		return p.int32At(0), p.int32At(4), abi.OK
	}
	return int(vi(p.extra, 0)), int(vi(p.extra, 1)), abi.OK
}

// wait decodes replyWait: the reaped pid and its status.
func (p reply) wait() (int, int, abi.Errno) {
	if p.err != abi.OK {
		return 0, 0, p.err
	}
	if p.sync {
		return int(p.ret), p.int32At(0), abi.OK
	}
	return int(p.ret), int(vi(p.extra, 0)), abi.OK
}

// poll decodes replyPoll, writing each revents into fds in place.
func (p reply) poll(fds []abi.Pollfd) (int, abi.Errno) {
	if p.err != abi.OK {
		return int(p.ret), p.err
	}
	if p.sync {
		got := abi.UnpackPollfds(p.out, len(fds))
		for i := range fds {
			fds[i].Revents = got[i].Revents
		}
		return int(p.ret), abi.OK
	}
	if arr, ok := p.extraAt(0).([]browser.Value); ok {
		for i := range fds {
			fds[i].Revents = 0
			if i < len(arr) {
				if v, ok := arr[i].(int64); ok {
					fds[i].Revents = uint32(v)
				}
			}
		}
	}
	return int(p.ret), abi.OK
}

// ---------------------------------------------------------------------------
// posix.Proc implementation. Every method follows the runtime's
// transport through call, except the zero-copy, ring fan-out and fork
// paths.
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
	ppid, _ := r.call(abi.SYS_getppid).num()
	return ppid
}
func (r *workerRT) Args() []string    { return r.args }
func (r *workerRT) Environ() []string { return r.env }
func (r *workerRT) Getenv(key string) string {
	return posix.Getenv(r.env, key)
}
func (r *workerRT) Setenv(key, value string) { r.env = posix.SetEnv(r.env, key, value) }

func (r *workerRT) Open(path string, flags int, mode uint32) (int, abi.Errno) {
	return r.call(abi.SYS_open, path, flags, int64(mode)).num()
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
	return r.call(abi.SYS_close, fd).err
}

func (r *workerRT) Read(fd int, n int) ([]byte, abi.Errno) { return r.read(fd, n, nil) }

// ReadInto reads up to len(dst) bytes into the caller's buffer: the same
// request, trap and charges as Read(fd, len(dst)), without a fresh
// result slice.
func (r *workerRT) ReadInto(fd int, dst []byte) (int, abi.Errno) {
	b, err := r.read(fd, len(dst), dst)
	return len(b), err
}

// read is the one read path behind Read and ReadInto: it requests n
// bytes and the reply decoders land them in dst (into).
func (r *workerRT) read(fd, n int, dst []byte) ([]byte, abi.Errno) {
	if r.sync {
		// A request larger than the scratch region degrades to a short
		// read rather than overflowing the staging area. The zero-copy
		// path's grant reply is not bounded by scratch — only its copy
		// fallback's staging buffer is.
		bufLen := n
		if max := r.maxScratchPayload(); int64(bufLen) > max {
			bufLen = int(max)
		}
		if r.poolOK {
			return r.readLeased(fd, n, bufLen, dst)
		}
		n = bufLen
	}
	return r.call(abi.SYS_read, fd, readBuf(n)).data(dst)
}

func (r *workerRT) Write(fd int, b []byte) (int, abi.Errno) {
	if r.sync && r.wgOK && len(b) > 0 {
		// Zero-copy path: stage the payload into leased arena slots and
		// submit references — no bytes cross through scratch.
		if n, err, ok := r.writeStaged(fd, b); ok {
			return n, err
		}
	}
	return r.writePlain(fd, b)
}

// writePlain is the classic write: the payload crosses in the message,
// or is staged through the sync scratch region for one kernel copy out
// of the heap.
func (r *workerRT) writePlain(fd int, b []byte) (int, abi.Errno) {
	// Sync buffers larger than the scratch region go out in pieces.
	if max := r.maxScratchPayload(); r.sync && int64(len(b)) > max {
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
	return r.call(abi.SYS_write, fd, b).num()
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
		b, err := r.readLeased(fd, total, bufLen, nil)
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
	return r.call(abi.SYS_pread, fd, readBuf(n), off).data(nil)
}

func (r *workerRT) Pwrite(fd int, b []byte, off int64) (int, abi.Errno) {
	return r.call(abi.SYS_pwrite, fd, b, off).num()
}

func (r *workerRT) Seek(fd int, off int64, whence int) (int64, abi.Errno) {
	if r.sync {
		// Seeking away returns the descriptor's page leases (they were
		// retained for the sequential window the seek abandons); the
		// reclaim frames share the seek's doorbell.
		r.dropFdLeases(fd)
		return r.syncCallLeased(abi.SYS_llseek, int64(fd), off, int64(whence))
	}
	p := r.call(abi.SYS_llseek, fd, off, whence)
	return p.ret, p.err
}

func (r *workerRT) Ftruncate(fd int, size int64) abi.Errno {
	return r.call(abi.SYS_ftruncate, fd, size).err
}

func (r *workerRT) Fsync(fd int) abi.Errno {
	return r.call(abi.SYS_fsync, fd).err
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
	return r.call(abi.SYS_dup2, oldfd, newfd).err
}

func (r *workerRT) Stat(path string) (abi.Stat, abi.Errno) {
	return r.call(abi.SYS_stat, path, outRec(abi.StatSize)).stat()
}
func (r *workerRT) Lstat(path string) (abi.Stat, abi.Errno) {
	return r.call(abi.SYS_lstat, path, outRec(abi.StatSize)).stat()
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
	return r.call(abi.SYS_fstat, fd, outRec(abi.StatSize)).stat()
}

func (r *workerRT) Access(path string, mode int) abi.Errno {
	return r.call(abi.SYS_access, path, mode).err
}

func (r *workerRT) Readlink(path string) (string, abi.Errno) {
	return r.call(abi.SYS_readlink, path, outBuf(4096)).str()
}

func (r *workerRT) Utimes(path string, atime, mtime int64) abi.Errno {
	return r.call(abi.SYS_utimes, path, atime, mtime).err
}

func (r *workerRT) Mkdir(path string, mode uint32) abi.Errno {
	return r.call(abi.SYS_mkdir, path, int64(mode)).err
}

func (r *workerRT) Rmdir(path string) abi.Errno {
	return r.call(abi.SYS_rmdir, path).err
}

func (r *workerRT) Unlink(path string) abi.Errno {
	return r.call(abi.SYS_unlink, path).err
}

func (r *workerRT) Rename(oldp, newp string) abi.Errno {
	return r.call(abi.SYS_rename, oldp, newp).err
}

func (r *workerRT) Symlink(target, link string) abi.Errno {
	return r.call(abi.SYS_symlink, target, link).err
}

func (r *workerRT) Getdents(fd int) ([]abi.Dirent, abi.Errno) {
	return r.call(abi.SYS_getdents, fd, outBuf(64*1024)).dirents()
}

func (r *workerRT) Chdir(path string) abi.Errno {
	return r.call(abi.SYS_chdir, path).err
}

func (r *workerRT) Getcwd() (string, abi.Errno) {
	return r.call(abi.SYS_getcwd, outBuf(4096)).str()
}

func (r *workerRT) Pipe() (int, int, abi.Errno) {
	if !r.sync {
		// The message still carries pipe2's flags word, which the kernel
		// ignores.
		return r.call(abi.SYS_pipe2, 0).pipe()
	}
	return r.call(abi.SYS_pipe2, outRec(8)).pipe()
}

func (r *workerRT) Spawn(path string, argv, env []string, files []int) (int, abi.Errno) {
	return r.call(abi.SYS_spawn, path, argv, env, files).num()
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
	return r.call(abi.SYS_exec, path, argv, env).err
}

func (r *workerRT) Wait4(pid int, options int) (int, int, abi.Errno) {
	return r.call(abi.SYS_wait4, pid, outRec(4), options).wait()
}

func (r *workerRT) Exit(code int) {
	panic(exitSentinel{code})
}

func (r *workerRT) Kill(pid, sig int) abi.Errno {
	return r.call(abi.SYS_kill, pid, sig).err
}

func (r *workerRT) Signal(sig int, handler func(int)) abi.Errno {
	action := 1
	if handler == nil {
		action = 0
	}
	if err := r.call(abi.SYS_signal, sig, action).err; err != abi.OK {
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
	return r.call(abi.SYS_socket).num()
}

func (r *workerRT) Bind(fd, port int) abi.Errno {
	return r.call(abi.SYS_bind, fd, port).err
}

func (r *workerRT) Listen(fd, backlog int) abi.Errno {
	return r.call(abi.SYS_listen, fd, backlog).err
}

func (r *workerRT) Connect(fd, port int) abi.Errno {
	return r.call(abi.SYS_connect, fd, port).err
}

func (r *workerRT) Accept(fd int) (int, abi.Errno) {
	return r.call(abi.SYS_accept, fd).num()
}

func (r *workerRT) Getsockname(fd int) (int, abi.Errno) {
	return r.call(abi.SYS_getsockname, fd).num()
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
		conn, err := r.call(abi.SYS_accept, fd, abi.O_NONBLOCK).num()
		if err != abi.OK {
			if err == abi.EAGAIN || len(fds) > 0 {
				break
			}
			return nil, err
		}
		fds = append(fds, conn)
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
	return r.call(abi.SYS_poll, fds, timeoutNs).poll(fds)
}

func (r *workerRT) Setfl(fd, flags int) abi.Errno {
	return r.call(abi.SYS_setfl, fd, flags).err
}

func (r *workerRT) CPU(ns int64) {
	r.sim.Charge(int64(float64(ns) * r.cost.Mult))
}

func (r *workerRT) CPU64(ns int64) {
	r.sim.Charge(int64(float64(ns) * r.cost.Int64Mult))
}

func (r *workerRT) RuntimeName() string { return string(r.kind) }
