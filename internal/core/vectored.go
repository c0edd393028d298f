package core

import (
	"repro/internal/abi"
	"repro/internal/fs"
)

// Vectored, zero-copy I/O (the data-plane half of the ring-transport
// redesign). Kernel objects may implement either optional interface to
// move whole owned buffers instead of copying per call; files that don't
// get a safe scalar fallback, so every File keeps working unchanged.

// vectoredWriter is implemented by files that can take ownership of the
// buffers handed to them (pipes). The kernel only passes buffers it owns —
// bytes freshly decoded from a process heap or a cloned message.
type vectoredWriter interface {
	Writev(d *Desc, bufs [][]byte, cb func(int, abi.Errno))
}

// splicer is implemented by files that can surrender buffered data as
// owned segments without copying (pipes).
type splicer interface {
	Splice(d *Desc, max int, cb func([][]byte, abi.Errno))
}

// vectoredReader is implemented by files whose storage can gather
// directly into segments (fs-backed files via FileHandle.Preadv), so a
// readv needs no kernel-side coalescing buffer.
type vectoredReader interface {
	Readv(d *Desc, total int, cb func([][]byte, abi.Errno))
}

// refReader is implemented by files whose storage can answer a read
// with pinned page-cache references instead of payload bytes (fs-backed
// files over the shared page pool) — the zero-copy read path. A refusal
// must leave the descriptor offset untouched.
type refReader interface {
	ReadRef(d *Desc, n, max int) ([]fs.PageRef, bool)
}

// writeMoved writes one kernel-owned buffer to a file, transferring
// ownership when the file supports it (the zero-copy pipe path) and
// copying via the scalar Write otherwise.
func writeMoved(d *Desc, buf []byte, cb func(int, abi.Errno)) {
	if vw, ok := d.file.(vectoredWriter); ok {
		vw.Writev(d, [][]byte{buf}, cb)
		return
	}
	d.file.Write(d, buf, cb)
}

// readGather reads up to total bytes from a file as a segment list with a
// single blocking point — POSIX readv semantics: block until some data (or
// EOF), then return whatever is immediately available, never waiting for
// the full count. Pipes splice owned segments out; other files fall back
// to one scalar Read.
func readGather(d *Desc, total int, cb func([][]byte, abi.Errno)) {
	if sp, ok := d.file.(splicer); ok {
		sp.Splice(d, total, cb)
		return
	}
	if vr, ok := d.file.(vectoredReader); ok {
		vr.Readv(d, total, cb)
		return
	}
	d.file.Read(d, total, func(data []byte, err abi.Errno) {
		if err != abi.OK || len(data) == 0 {
			cb(nil, err)
			return
		}
		cb([][]byte{data}, abi.OK)
	})
}

// scatterHeap copies gathered segments into the iovec targets in order,
// returning bytes written. This is the single per-byte copy (and charge)
// of the vectored read path.
func (t *Task) scatterHeap(iovs []abi.Iovec, segs [][]byte) int {
	n := 0
	iv := 0
	used := 0 // bytes already scattered into iovs[iv]
	for _, seg := range segs {
		for len(seg) > 0 && iv < len(iovs) {
			space := int(iovs[iv].Len) - used
			if space == 0 {
				iv++
				used = 0
				continue
			}
			take := len(seg)
			if take > space {
				take = space
			}
			t.heapWrite(iovs[iv].Ptr+int64(used), seg[:take])
			seg = seg[take:]
			used += take
			n += take
		}
	}
	return n
}

// writevBufs writes kernel-owned buffers to a file, preferring the
// ownership-transfer path.
func writevBufs(d *Desc, bufs [][]byte, done func(int64, abi.Errno)) {
	if len(bufs) == 0 {
		done(0, abi.OK)
		return
	}
	if vw, ok := d.file.(vectoredWriter); ok {
		vw.Writev(d, bufs, func(n int, err abi.Errno) {
			if err != abi.OK && n == 0 {
				done(-1, err)
				return
			}
			done(int64(n), abi.OK)
		})
		return
	}
	var total int64
	var loop func(i int)
	loop = func(i int) {
		if i == len(bufs) {
			done(total, abi.OK)
			return
		}
		d.file.Write(d, bufs[i], func(n int, err abi.Errno) {
			total += int64(n)
			if err != abi.OK {
				if total > 0 {
					done(total, abi.OK) // partial writev succeeded
				} else {
					done(-1, err)
				}
				return
			}
			loop(i + 1)
		})
	}
	loop(0)
}
