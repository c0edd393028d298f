package fs

import (
	"bytes"
	"testing"

	"repro/internal/abi"
)

// sharedSource returns an immutable-by-contract buffer of n bytes whose
// backing array has spare capacity filled with a sentinel, plus a
// pristine copy of that whole array: an append or write through an
// uncapped alias would show up past len as well as within it.
func sharedSource(n int) (src, pristine []byte) {
	backing := make([]byte, n+64)
	for i := range backing {
		backing[i] = byte('a' + i%26)
	}
	for i := n; i < len(backing); i++ {
		backing[i] = '#'
	}
	return backing[:n], append([]byte(nil), backing...)
}

func checkSourceIntact(t *testing.T, src, pristine []byte) {
	t.Helper()
	if got := src[:cap(src)]; !bytes.Equal(got, pristine) {
		t.Fatalf("source buffer modified through the shared file")
	}
}

func mustWriteShared(t *testing.T, f *FileSystem, p string, data []byte) {
	t.Helper()
	var got abi.Errno = -1
	f.WriteFileShared(p, data, 0o644, func(err abi.Errno) { got = err })
	if got != abi.OK {
		t.Fatalf("WriteFileShared(%s): %v", p, got)
	}
}

// memNodeAt returns the backend node at p (white-box: where the bytes
// physically live).
func memNodeAt(t *testing.T, m *MemFS, p string) *memNode {
	t.Helper()
	n := m.lookup(p)
	if n == nil {
		t.Fatalf("%s missing on the backend", p)
	}
	return n
}

// TestWriteFileSharedAdoptsByReference: on the write-back path over
// memfs the staged bytes land on the backend by reference — one backend
// write, no copy — and read back unchanged.
func TestWriteFileSharedAdoptsByReference(t *testing.T) {
	mem := NewMemFS(now)
	f := NewFileSystem(mem, func() int64 { return clock })
	src, pristine := sharedSource(3*PageSize + 17)
	mustWriteShared(t, f, "/exe", src)
	n := memNodeAt(t, mem, "/exe")
	if !n.shared || &n.data[0] != &src[0] || cap(n.data) != len(src) {
		t.Fatalf("staged bytes were copied (shared=%v cap=%d len=%d)", n.shared, cap(n.data), len(src))
	}
	if mem.WriteOps != 1 {
		t.Fatalf("backend writes = %d, want 1", mem.WriteOps)
	}
	if got := mustRead(t, f, "/exe"); got != string(src) {
		t.Fatal("read-back differs from the staged bytes")
	}
	checkSourceIntact(t, src, pristine)
}

// TestSharedFileCopyOnWrite: every way of changing a shared file —
// in-place write, truncate-shrink then write, truncate-grow, O_APPEND —
// clones before mutating: the source buffer stays byte-identical while
// reads see the new bytes.
func TestSharedFileCopyOnWrite(t *testing.T) {
	const size = 2*PageSize + 100
	cases := []struct {
		name string
		do   func(t *testing.T, f *FileSystem)
		want func(src []byte) []byte
	}{
		{"pwrite-in-place", func(t *testing.T, f *FileSystem) {
			h := openWB(t, f, "/exe", abi.O_RDWR)
			pwrite(t, h, 10, "XYZ")
			closeH(t, h)
		}, func(src []byte) []byte {
			out := append([]byte(nil), src...)
			copy(out[10:], "XYZ")
			return out
		}},
		{"truncate-shrink-then-write", func(t *testing.T, f *FileSystem) {
			h := openWB(t, f, "/exe", abi.O_RDWR)
			truncate(t, h, 20)
			pwrite(t, h, 5, "AB")
			closeH(t, h)
		}, func(src []byte) []byte {
			out := append([]byte(nil), src[:20]...)
			copy(out[5:], "AB")
			return out
		}},
		{"truncate-grow", func(t *testing.T, f *FileSystem) {
			h := openWB(t, f, "/exe", abi.O_RDWR)
			truncate(t, h, size+50)
			closeH(t, h)
		}, func(src []byte) []byte {
			return append(append([]byte(nil), src...), make([]byte, 50)...)
		}},
		{"o-append", func(t *testing.T, f *FileSystem) {
			h := openWB(t, f, "/exe", abi.O_WRONLY|abi.O_APPEND)
			var end int64
			h.Stat(func(st abi.Stat, _ abi.Errno) { end = st.Size })
			pwrite(t, h, end, "tail")
			closeH(t, h)
		}, func(src []byte) []byte {
			return append(append([]byte(nil), src...), "tail"...)
		}},
	}
	for _, tc := range cases {
		for _, writeBack := range []bool{true, false} {
			mem := NewMemFS(now)
			f := NewFileSystem(mem, func() int64 { return clock })
			src, pristine := sharedSource(size)
			mustWriteShared(t, f, "/exe", src)
			f.SetWriteBack(writeBack)
			tc.do(t, f)
			if got := mustRead(t, f, "/exe"); got != string(tc.want(src)) {
				t.Errorf("%s (write-back %v): read %d bytes, not the new contents", tc.name, writeBack, len(got))
			}
			checkSourceIntact(t, src, pristine)
		}
	}
}

// TestSharedDirtyExtentMerges: writes landing on a still-dirty shared
// extent — overlapping it, or appending right after it — copy instead
// of writing into the caller's buffer, and the flush lands the merged
// bytes.
func TestSharedDirtyExtentMerges(t *testing.T) {
	for _, tc := range []struct {
		name string
		off  int64
	}{{"overlap", 100}, {"append", 1000}, {"straddle-end", 998}} {
		mem := NewMemFS(now)
		f := NewFileSystem(mem, func() int64 { return clock })
		src, pristine := sharedSource(1000)
		h := openWB(t, f, "/exe", abi.O_RDWR|abi.O_CREAT|abi.O_TRUNC)
		var got abi.Errno = -1
		h.(sharedWriter).PwriteShared(0, src, func(_ int, err abi.Errno) { got = err })
		if got != abi.OK {
			t.Fatalf("%s: PwriteShared: %v", tc.name, got)
		}
		pwrite(t, h, tc.off, "MERGE")
		want := append([]byte(nil), src...)
		if end := tc.off + 5; end > int64(len(want)) {
			want = append(want, make([]byte, end-int64(len(want)))...)
		}
		copy(want[tc.off:], "MERGE")
		checkSourceIntact(t, src, pristine)
		closeH(t, h)
		// Checked before reading back: ReadFile's view marks the node
		// shared on purpose.
		mustFlushDirty(t, f)
		if memNodeAt(t, mem, "/exe").shared {
			t.Errorf("%s: merged extent flushed as shared", tc.name)
		}
		if got := mustRead(t, f, "/exe"); got != string(want) {
			t.Errorf("%s: flushed contents differ from the merged writes", tc.name)
		}
		checkSourceIntact(t, src, pristine)
	}
}

// TestSharedExtentBesideDirtyBytes: a shared extent adopted right
// after buffered bytes stays a separate extent; the flush coalesces the
// two into one copied run, so the file never aliases the caller's buffer.
func TestSharedExtentBesideDirtyBytes(t *testing.T) {
	mem := NewMemFS(now)
	f := NewFileSystem(mem, func() int64 { return clock })
	src, pristine := sharedSource(1000)
	h := openWB(t, f, "/exe", abi.O_RDWR|abi.O_CREAT|abi.O_TRUNC)
	pwrite(t, h, 0, "HEAD")
	var got abi.Errno = -1
	h.(sharedWriter).PwriteShared(4, src, func(_ int, err abi.Errno) { got = err })
	if got != abi.OK {
		t.Fatalf("PwriteShared: %v", got)
	}
	closeH(t, h)
	// Checked before reading back: ReadFile's view marks the node shared
	// on purpose.
	mustFlushDirty(t, f)
	if n := memNodeAt(t, mem, "/exe"); n.shared || &n.data[4] == &src[0] {
		t.Errorf("coalesced run landed by reference")
	}
	if got := mustRead(t, f, "/exe"); got != "HEAD"+string(src) {
		t.Errorf("flushed contents differ from the two writes")
	}
	checkSourceIntact(t, src, pristine)
}

func mustFlushDirty(t *testing.T, f *FileSystem) {
	t.Helper()
	var got abi.Errno = -1
	f.FlushDirty(func(err abi.Errno) { got = err })
	if got != abi.OK {
		t.Fatalf("FlushDirty: %v", got)
	}
}

// TestWriteFileSharedCopiesOnWriteThrough: where no layer can keep the
// bytes by reference — write-back off, or a write-through backend like
// localStorage — WriteFileShared copies, so the file never aliases the
// caller's buffer.
func TestWriteFileSharedCopiesOnWriteThrough(t *testing.T) {
	mem := NewMemFS(now)
	off := NewFileSystem(mem, func() int64 { return clock })
	off.SetWriteBack(false)
	ls, lsfs := newLSFS(1 << 20)
	for _, tc := range []struct {
		name string
		f    *FileSystem
		m    *MemFS
	}{{"write-back off", off, mem}, {"localstorage", lsfs, ls.MemFS}} {
		src, _ := sharedSource(PageSize + 1)
		mustWriteShared(t, tc.f, "/exe", src)
		if n := memNodeAt(t, tc.m, "/exe"); n.shared || &n.data[0] == &src[0] {
			t.Errorf("%s: file aliases the caller's buffer", tc.name)
		}
		want := string(src)
		src[0] = '!'
		if got := mustRead(t, tc.f, "/exe"); got != want {
			t.Errorf("%s: file changed with the caller's buffer", tc.name)
		}
	}
}

func truncate(t *testing.T, h FileHandle, size int64) {
	t.Helper()
	var got abi.Errno = -1
	h.Truncate(size, func(err abi.Errno) { got = err })
	if got != abi.OK {
		t.Fatalf("truncate: %v", got)
	}
}
