package core

import (
	"encoding/binary"
	"math"

	"repro/internal/abi"
	"repro/internal/browser"
)

// A system call in flight, independent of the transport that carried it.
// Browsix's kernel and runtimes share one syscall module (§3.2, Figure 2);
// the transport changes only how arguments and results cross. The
// asynchronous transport clones an argument array into the kernel and
// replies with an [ret, errno, extra...] array. The synchronous and ring
// transports pass integers — (ptr,len) pairs into the process's shared
// heap for anything larger — and complete through the wake cell or a
// reply frame. dispatchCall reads every argument and delivers every
// result through a call, so each system call has one implementation.

// call is one system call's argument access and result delivery.
// Arguments are consumed in wire order. A malformed argument (a heap
// range outside the process's heap, an oversized vector) records a
// sticky errno that bad reports; later accessors return zero values.
type call interface {
	num() int64                   // an integer
	str() string                  // a string
	strs() []string               // a string list
	ints() []int                  // an integer list (spawn's descriptors)
	payload() []byte              // a write payload, owned by the kernel
	payloads() [][]byte           // writev's non-empty buffers, owned by the kernel
	iovecs() []abi.Iovec          // readv's destinations
	pollfds() ([]abi.Pollfd, dst) // a pollfd array and where its revents go
	buf() dst                     // a read destination; its length crosses on both transports
	outBuf() dst                  // a result buffer; a message reply is unbounded
	out(size int64) dst           // a fixed-size result record; none in a message
	bad() abi.Errno
	fail(err abi.Errno) // record a failure (the first one sticks)

	done(ret int64, err abi.Errno)
	replyData(o dst, b []byte, err abi.Errno)
	replyStr(o dst, s string, err abi.Errno)
	replyStat(o dst, st abi.Stat, err abi.Errno)
	replyDirents(d *Desc, o dst, ents []abi.Dirent, err abi.Errno)
	replyPipe(o dst, rfd, wfd int)
	replyWait(o dst, pid, status int, err abi.Errno)
	replyPoll(o dst, fds []abi.Pollfd, n int, err abi.Errno)
	replySegs(iovs []abi.Iovec, segs [][]byte)
}

// dst is where a result lands: a heap range, or — in a message — only
// the capacity the caller asked for.
type dst struct{ ptr, len int64 }

// failed completes c with its argument errno, if it has one.
func failed(c call) bool {
	if err := c.bad(); err != abi.OK {
		c.done(-1, err)
		return true
	}
	return false
}

// cursor is the argument position and sticky decode errno both call
// implementations share.
type cursor struct {
	next int
	err  abi.Errno
}

func (c *cursor) bad() abi.Errno { return c.err }

func (c *cursor) fail(err abi.Errno) {
	if c.err == abi.OK && err != abi.OK {
		c.err = err
	}
}

// ---------------------------------------------------------------------------
// Message-backed calls: the asynchronous transport.
// ---------------------------------------------------------------------------

// msgCall is a call that arrived as a postMessage.
type msgCall struct {
	cursor
	args  []browser.Value
	reply func(...browser.Value)
}

func (c *msgCall) arg() browser.Value {
	var v browser.Value
	if c.next < len(c.args) {
		v = c.args[c.next]
	}
	c.next++
	return v
}

func toInt(v browser.Value) (int64, bool) {
	switch x := v.(type) {
	case int64:
		return x, true
	case int:
		return int64(x), true
	case float64:
		return int64(x), true
	}
	return 0, false
}

func (c *msgCall) num() int64 {
	n, _ := toInt(c.arg())
	return n
}

func (c *msgCall) str() string {
	s, _ := c.arg().(string)
	return s
}

func (c *msgCall) strs() []string {
	arr, _ := c.arg().([]browser.Value)
	if arr == nil {
		return nil
	}
	return browser.Strings(arr)
}

func (c *msgCall) ints() []int {
	arr, _ := c.arg().([]browser.Value)
	var out []int
	for _, v := range arr {
		if n, ok := toInt(v); ok {
			out = append(out, int(n))
		}
	}
	return out
}

// payload returns the cloned message's buffer: uniquely the kernel's,
// so ownership can transfer to the file.
func (c *msgCall) payload() []byte {
	b, _ := c.arg().([]byte)
	return b
}

func (c *msgCall) payloads() [][]byte {
	arr, _ := c.arg().([]browser.Value)
	var bufs [][]byte
	for _, v := range arr {
		if b, ok := v.([]byte); ok && len(b) > 0 {
			bufs = append(bufs, b)
		}
	}
	return bufs
}

// iovecs reads a list of segment lengths; the reply carries the bytes.
func (c *msgCall) iovecs() []abi.Iovec {
	lens := c.ints()
	if len(lens) > 1024 {
		c.fail(abi.EINVAL)
		return nil
	}
	iovs := make([]abi.Iovec, len(lens))
	for i, n := range lens {
		if n < 0 {
			c.fail(abi.EINVAL)
			return nil
		}
		iovs[i].Len = int64(n)
	}
	return iovs
}

// pollfds reads a flat [fd0, events0, fd1, events1, ...] array.
func (c *msgCall) pollfds() ([]abi.Pollfd, dst) {
	raw := c.ints()
	if len(raw)%2 != 0 || len(raw)/2 > 4096 {
		c.fail(abi.EINVAL)
		return nil, dst{}
	}
	fds := make([]abi.Pollfd, len(raw)/2)
	for i := range fds {
		fds[i] = abi.Pollfd{Fd: int32(raw[2*i]), Events: uint32(raw[2*i+1])}
	}
	return fds, dst{}
}

func (c *msgCall) buf() dst {
	n := c.num()
	if n < 0 {
		c.fail(abi.EINVAL)
	}
	return dst{len: n}
}

func (c *msgCall) outBuf() dst        { return dst{len: math.MaxInt64} }
func (c *msgCall) out(size int64) dst { return dst{} }

// sab reads a SharedArrayBuffer argument (transport registration).
func (c *msgCall) sab() *browser.SAB {
	s, _ := c.arg().(*browser.SAB)
	return s
}

func (c *msgCall) done(ret int64, err abi.Errno) { c.reply(ret, int64(err)) }

func (c *msgCall) replyData(o dst, b []byte, err abi.Errno) {
	c.reply(int64(len(b)), int64(err), b)
}

func (c *msgCall) replyStr(o dst, s string, err abi.Errno) {
	ret := int64(len(s))
	if err != abi.OK {
		ret = -1
	}
	c.reply(ret, int64(err), s)
}

func (c *msgCall) replyStat(o dst, st abi.Stat, err abi.Errno) {
	c.reply(int64(0), int64(err), abi.StatToMap(st))
}

// replyDirents sends every entry as an object; ret is the byte count a
// getdents into a large enough buffer would have returned.
func (c *msgCall) replyDirents(d *Desc, o dst, ents []abi.Dirent, err abi.Errno) {
	arr := make([]browser.Value, len(ents))
	for i, e := range ents {
		arr[i] = abi.DirentToMap(e)
	}
	ret := int64(abi.DirentsSize(ents))
	if err != abi.OK {
		ret = -1
	}
	c.reply(ret, int64(err), arr)
}

func (c *msgCall) replyPipe(o dst, rfd, wfd int) {
	c.reply(int64(0), int64(abi.OK), int64(rfd), int64(wfd))
}

func (c *msgCall) replyWait(o dst, pid, status int, err abi.Errno) {
	c.reply(int64(pid), int64(err), int64(status))
}

func (c *msgCall) replyPoll(o dst, fds []abi.Pollfd, n int, err abi.Errno) {
	rev := make([]browser.Value, len(fds))
	for i := range fds {
		rev[i] = int64(fds[i].Revents)
	}
	c.reply(int64(n), int64(err), rev)
}

func (c *msgCall) replySegs(iovs []abi.Iovec, segs [][]byte) {
	arr := make([]browser.Value, len(segs))
	var n int64
	for i, s := range segs {
		arr[i] = s
		n += int64(len(s))
	}
	c.reply(n, int64(abi.OK), arr)
}

// ---------------------------------------------------------------------------
// Heap-backed calls: the synchronous and ring transports. Arguments are
// "just integers and integer offsets (representing pointers) into the
// shared memory array" (§3.2); every range is bounds-checked here, once,
// so a hostile frame fails with EFAULT instead of crashing the kernel.
// ---------------------------------------------------------------------------

// heapCall is a call that arrived as integer arguments.
type heapCall struct {
	cursor
	t    *Task
	args []int64
	fin  func(int64, abi.Errno)
}

// frameCall wraps a popped ring (or scalar sync) frame; done receives
// the completion.
func (t *Task) frameCall(c pendingCall, done func(uint32, int64, abi.Errno)) *heapCall {
	return &heapCall{t: t, args: c.args, fin: func(ret int64, err abi.Errno) { done(c.seq, ret, err) }}
}

func (c *heapCall) num() int64 {
	var v int64
	if c.next < len(c.args) {
		v = c.args[c.next]
	}
	c.next++
	return v
}

// check records EFAULT unless [ptr, ptr+n) lies inside the heap.
func (c *heapCall) check(ptr, n int64) bool {
	if c.err != abi.OK {
		return false
	}
	if !c.t.inHeap(ptr, n) {
		c.err = abi.EFAULT
		return false
	}
	return true
}

// inHeap reports whether [ptr, ptr+n) lies inside the task's heap. It
// tests ptr > hlen-n rather than ptr+n > hlen: the sum can overflow for a
// hostile pointer; the subtraction cannot once n is in [0, hlen].
func (t *Task) inHeap(ptr, n int64) bool {
	if t.heap == nil {
		return false
	}
	hlen := int64(t.heap.Len())
	return ptr >= 0 && n >= 0 && n <= hlen && ptr <= hlen-n
}

func (c *heapCall) str() string {
	ptr, n := c.num(), c.num()
	if !c.check(ptr, n) {
		return ""
	}
	return c.t.heapStr(ptr, n)
}

// strs reads a NUL-separated packed list.
func (c *heapCall) strs() []string { return splitNul(c.str()) }

// array reads a (ptr, count) pair naming count records of size bytes —
// at most max of them — and copies them out of the heap.
func (c *heapCall) array(size, max int64) (int64, []byte) {
	ptr, n := c.num(), c.num()
	if c.err != abi.OK {
		return ptr, nil
	}
	if n < 0 || n > max {
		c.fail(abi.EINVAL)
		return ptr, nil
	}
	if n == 0 || !c.check(ptr, n*size) {
		return ptr, nil
	}
	return ptr, c.t.heapBytes(ptr, n*size)
}

// ints reads little-endian int32 records.
func (c *heapCall) ints() []int {
	_, raw := c.array(4, 1024)
	out := make([]int, len(raw)/4)
	for i := range out {
		out[i] = int(int32(binary.LittleEndian.Uint32(raw[i*4:])))
	}
	return out
}

// payload copies a write payload out of the heap: a fresh buffer, so
// ownership can transfer to the file.
func (c *heapCall) payload() []byte {
	ptr, n := c.num(), c.num()
	if !c.check(ptr, n) {
		return nil
	}
	data := c.t.heapBytes(ptr, n)
	c.t.k.WriteCopiedBytes.Add(n)
	return data
}

func (c *heapCall) iovecs() []abi.Iovec {
	_, raw := c.array(abi.IovecSize, 1024)
	iovs := abi.UnpackIovecs(raw, len(raw)/abi.IovecSize)
	for _, iov := range iovs {
		if !c.check(iov.Ptr, iov.Len) {
			return nil
		}
	}
	return iovs
}

// payloads gathers each iovec out of the heap: one copy, after which the
// buffers belong to the kernel.
func (c *heapCall) payloads() [][]byte {
	iovs := c.iovecs()
	bufs := make([][]byte, 0, len(iovs))
	for _, iov := range iovs {
		if iov.Len > 0 {
			bufs = append(bufs, c.t.heapBytes(iov.Ptr, iov.Len))
			c.t.k.WriteCopiedBytes.Add(iov.Len)
		}
	}
	return bufs
}

// pollfds reads the staged pollfd array; the reply rewrites its revents
// in place.
func (c *heapCall) pollfds() ([]abi.Pollfd, dst) {
	ptr, raw := c.array(abi.PollfdSize, 4096)
	return abi.UnpackPollfds(raw, len(raw)/abi.PollfdSize), dst{ptr, int64(len(raw))}
}

func (c *heapCall) buf() dst {
	ptr, n := c.num(), c.num()
	if n < 0 {
		c.fail(abi.EINVAL)
	}
	c.check(ptr, n)
	return dst{ptr, n}
}

func (c *heapCall) outBuf() dst { return c.buf() }

func (c *heapCall) out(size int64) dst {
	ptr := c.num()
	c.check(ptr, size)
	return dst{ptr, size}
}

func (c *heapCall) done(ret int64, err abi.Errno) { c.fin(ret, err) }

// replyData lands read data in the heap: "data is copied directly from
// the filesystem, pipe or socket into the process's heap" (§3.2).
func (c *heapCall) replyData(o dst, b []byte, err abi.Errno) {
	if err == abi.OK {
		c.t.heapWrite(o.ptr, b)
		c.t.k.ReadCopiedBytes.Add(int64(len(b)))
	}
	c.fin(int64(len(b)), err)
}

func (c *heapCall) replyStr(o dst, s string, err abi.Errno) {
	if err != abi.OK {
		c.fin(-1, err)
		return
	}
	c.t.heapWrite(o.ptr, []byte(s))
	c.fin(int64(len(s)), abi.OK)
}

func (c *heapCall) replyStat(o dst, st abi.Stat, err abi.Errno) {
	if err == abi.OK {
		var buf [abi.StatSize]byte
		abi.PackStat(buf[:], st)
		c.t.heapWrite(o.ptr, buf[:])
	}
	c.fin(0, err)
}

// replyDirents packs as many entries as fit in the guest's buffer and
// hands the rest back to the directory cursor.
func (c *heapCall) replyDirents(d *Desc, o dst, ents []abi.Dirent, err abi.Errno) {
	if err != abi.OK {
		c.fin(-1, err)
		return
	}
	buf := make([]byte, o.len)
	n, consumed := abi.PackDirents(buf, ents)
	if consumed == 0 && len(ents) > 0 {
		// Buffer too small for even one record: an empty result would
		// read as end-of-directory (silent truncation). Rewind the
		// cursor and fail, as Linux getdents does.
		d.off -= int64(len(ents))
		c.fin(-1, abi.EINVAL)
		return
	}
	// The next getdents continues with the unpacked tail.
	d.off -= int64(len(ents) - consumed)
	c.t.heapWrite(o.ptr, buf[:n])
	c.fin(int64(n), abi.OK)
}

func (c *heapCall) replyPipe(o dst, rfd, wfd int) {
	var buf [8]byte
	leAt(buf[:], 0).putU32(uint32(rfd))
	leAt(buf[:], 4).putU32(uint32(wfd))
	c.t.heapWrite(o.ptr, buf[:])
	c.fin(0, abi.OK)
}

// replyWait stores the wait status unless the caller passed a null
// status pointer.
func (c *heapCall) replyWait(o dst, pid, status int, err abi.Errno) {
	if err == abi.OK && o.ptr != 0 {
		var buf [4]byte
		leAt(buf[:], 0).putU32(uint32(int32(status)))
		c.t.heapWrite(o.ptr, buf[:])
	}
	c.fin(int64(pid), err)
}

// replyPoll rewrites the staged array's revents. An empty array's
// pointer was never checked (nothing is read through it), so nothing is
// written through it either.
func (c *heapCall) replyPoll(o dst, fds []abi.Pollfd, n int, err abi.Errno) {
	if err == abi.OK && len(fds) > 0 {
		buf := make([]byte, len(fds)*abi.PollfdSize)
		abi.PackPollfds(buf, fds)
		c.t.heapWrite(o.ptr, buf)
	}
	c.fin(int64(n), err)
}

// replySegs scatters gathered segments into the iovecs: the single
// per-byte copy of the vectored read path.
func (c *heapCall) replySegs(iovs []abi.Iovec, segs [][]byte) {
	n := c.t.scatterHeap(iovs, segs)
	c.t.k.ReadCopiedBytes.Add(int64(n))
	c.fin(int64(n), abi.OK)
}
