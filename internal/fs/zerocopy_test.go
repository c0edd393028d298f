package fs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/abi"
)

// Zero-copy read path unit tests: PreadRef grant semantics, the
// pin/freeze lease discipline of the page pool, and the adaptive
// readahead window.

func openPaged(t *testing.T, f *FileSystem, p string) *pagedHandle {
	t.Helper()
	var out *pagedHandle
	f.Open(p, abi.O_RDONLY, 0, func(fh FileHandle, err abi.Errno) {
		if err != abi.OK {
			t.Fatalf("open %s: %v", p, err)
		}
		ph, ok := fh.(*pagedHandle)
		if !ok {
			t.Fatalf("open %s: got %T, want *pagedHandle", p, fh)
		}
		out = ph
	})
	return out
}

func warmRead(t *testing.T, h FileHandle, off int64, n int) []byte {
	t.Helper()
	var out []byte
	h.Pread(off, n, func(b []byte, err abi.Errno) {
		if err != abi.OK {
			t.Fatalf("pread: %v", err)
		}
		out = b
	})
	return out
}

func patterned(n int) string {
	var sb strings.Builder
	for sb.Len() < n {
		fmt.Fprintf(&sb, "block-%08d|", sb.Len())
	}
	return sb.String()[:n]
}

func TestPreadRefGrantsWarmPages(t *testing.T) {
	content := patterned(2*PageSize + 700) // EOF inside a short page
	f, counted := newCountedFS(t, content)
	h := openPaged(t, f, "/mnt/a/b/file.txt")
	warmRead(t, h, 0, len(content)) // populate every page
	opensBefore := counted.opens

	refs, ok := h.PreadRef(100, PageSize+50, 8)
	if !ok {
		t.Fatalf("PreadRef refused a fully warm range")
	}
	if counted.opens != opensBefore {
		t.Fatalf("grant path touched the backend")
	}
	var got []byte
	for _, r := range refs {
		if n := f.pc.pool.pinCount(r.Slot); n != 1 {
			t.Fatalf("slot %d pins = %d, want 1", r.Slot, n)
		}
		got = append(got, arenaAt(f, r)...)
	}
	if string(got) != content[100:100+PageSize+50] {
		t.Fatalf("granted bytes differ from file content")
	}
	st := f.CacheStats()
	if st.GrantedPages != int64(len(refs)) || st.PinnedPages == 0 {
		t.Fatalf("lease stats: %+v", st)
	}
	for _, r := range refs {
		if !f.UnleasePage(r.Slot) {
			t.Fatalf("unlease slot %d failed", r.Slot)
		}
	}
	if f.CacheStats().PinnedPages != 0 {
		t.Fatalf("pins remain after unlease")
	}

	// A read entirely at/after EOF inside the short tail page grants
	// zero refs successfully — zero bytes, zero copies, zero leases.
	refs, ok = h.PreadRef(int64(len(content)), 4096, 8)
	if !ok || len(refs) != 0 {
		t.Fatalf("EOF PreadRef = (%d refs, ok=%v), want (0, true)", len(refs), ok)
	}
}

func TestPreadRefRefusesColdDirtyStaleAndTinyMax(t *testing.T) {
	content := patterned(3 * PageSize)
	f, _ := newCountedFS(t, content)
	h := openPaged(t, f, "/mnt/a/b/file.txt")

	// Cold: nothing cached yet.
	if _, ok := h.PreadRef(0, PageSize, 8); ok {
		t.Fatalf("PreadRef served a cold range")
	}
	warmRead(t, h, 0, len(content))

	// Too many refs for the caller's grant area: refuse without pinning.
	if _, ok := h.PreadRef(0, 3*PageSize, 1); ok {
		t.Fatalf("PreadRef exceeded max")
	}
	if f.CacheStats().PinnedPages != 0 {
		t.Fatalf("refused PreadRef left pins behind")
	}

	// Dirty write-back state on the path: the copy path (with its flush
	// barrier) must serve the read.
	f.pc.dirty["/mnt/a/b/file.txt"] = &dirtyFile{}
	if _, ok := h.PreadRef(0, PageSize, 8); ok {
		t.Fatalf("PreadRef served a dirty path")
	}
	delete(f.pc.dirty, "/mnt/a/b/file.txt")

	// Stale generation: the handle may be bound to a different file.
	f.pc.drop("/mnt/a/b/file.txt")
	if _, ok := h.PreadRef(0, PageSize, 8); ok {
		t.Fatalf("PreadRef served a stale handle")
	}
}

// TestLeaseFreezesDroppedPages is the revocation interlock: dropping a
// leased page (invalidation, flush, eviction) must preserve the slot's
// bytes until the lease returns, and must never re-grant or recycle the
// slot meanwhile.
func TestLeaseFreezesDroppedPages(t *testing.T) {
	content := patterned(2 * PageSize)
	f, _ := newCountedFS(t, content)
	h := openPaged(t, f, "/mnt/a/b/file.txt")
	warmRead(t, h, 0, len(content))

	refs, ok := h.PreadRef(0, PageSize, 4)
	if !ok || len(refs) != 1 {
		t.Fatalf("PreadRef: ok=%v refs=%d", ok, len(refs))
	}
	r := refs[0]
	snapshot := append([]byte(nil), arenaAt(f, r)...)

	// Gen-bumping invalidation while the lease is outstanding: the page
	// detaches (no new grants) but the slot freezes.
	f.invalidatePath("/mnt/a/b/file.txt")
	if !f.pc.pool.isFrozen(r.Slot) {
		t.Fatalf("dropped leased slot %d not frozen", r.Slot)
	}
	if f.pc.pool.isFree(r.Slot) {
		t.Fatalf("leased slot %d recycled while pinned", r.Slot)
	}
	// Churn the cache: stores must fill other slots, never this one.
	for i := 0; i < 32; i++ {
		f.pc.store(fmt.Sprintf("/churn%d", i), 0, bytes.Repeat([]byte{byte(i)}, PageSize), false)
	}
	if !bytes.Equal(arenaAt(f, r), snapshot) {
		t.Fatalf("frozen slot bytes changed under an outstanding lease")
	}

	// Returning the lease thaws the slot back onto the free stack.
	if !f.UnleasePage(r.Slot) {
		t.Fatalf("unlease failed")
	}
	if f.pc.pool.isFrozen(r.Slot) || f.pc.pool.pinCount(r.Slot) != 0 {
		t.Fatalf("slot %d not reclaimed after last unlease", r.Slot)
	}
	if !f.pc.pool.isFree(r.Slot) {
		t.Fatalf("slot %d not returned to the free stack", r.Slot)
	}
}

// TestStoreNeverRewritesLeasedSlot: re-caching a page (same path, same
// index) allocates a fresh slot when the old one is leased out — bytes
// under a lease are immutable.
func TestStoreNeverRewritesLeasedSlot(t *testing.T) {
	content := patterned(PageSize)
	f, _ := newCountedFS(t, content)
	h := openPaged(t, f, "/mnt/a/b/file.txt")
	warmRead(t, h, 0, len(content))
	refs, ok := h.PreadRef(0, PageSize, 4)
	if !ok || len(refs) != 1 {
		t.Fatalf("PreadRef: ok=%v", ok)
	}
	old := refs[0]
	f.pc.store("/mnt/a/b/file.txt", 0, bytes.Repeat([]byte{0xEE}, PageSize), false)
	pg := f.pc.files["/mnt/a/b/file.txt"].pages[0]
	if pg.slot == old.Slot {
		t.Fatalf("store reused leased slot %d in place", old.Slot)
	}
	if !bytes.Equal(arenaAt(f, old), []byte(content)) {
		t.Fatalf("leased bytes rewritten by store")
	}
	f.UnleasePage(old.Slot)
}

// recBackend wraps a read-only backend and records the size of every
// backend Pread — the observable the adaptive-readahead tests assert on.
type recBackend struct {
	Backend
	reads *[]int
}

func (b *recBackend) ReadOnly() bool { return true }

func (b *recBackend) Open(p string, flags int, mode uint32, cb func(FileHandle, abi.Errno)) {
	b.Backend.Open(p, flags, mode, func(h FileHandle, err abi.Errno) {
		if err == abi.OK {
			h = &recHandle{FileHandle: h, reads: b.reads}
		}
		cb(h, err)
	})
}

type recHandle struct {
	FileHandle
	reads *[]int
}

func (h *recHandle) Pread(off int64, n int, cb func([]byte, abi.Errno)) {
	*h.reads = append(*h.reads, n)
	h.FileHandle.Pread(off, n, cb)
}

// TestAdaptiveReadaheadDoublesOnStreakResetsOnSeek: sequential reads
// double the readahead window (so backend transfer units grow), and a
// seek resets it to the base.
func TestAdaptiveReadaheadDoublesOnStreakResetsOnSeek(t *testing.T) {
	const pages = 256
	img := NewMemFS(now)
	stage := NewFileSystem(img, func() int64 { return clock })
	mustWrite(t, stage, "/big", patterned(pages*PageSize))
	img.SetReadOnly()
	var reads []int
	f := newFS()
	f.Mount("/rec", &recBackend{Backend: img, reads: &reads})
	f.SetReadahead(2)

	h := openPaged(t, f, "/rec/big")
	// Sequential streak: page-at-a-time reads.
	for off := int64(0); off < 64*PageSize; off += PageSize {
		warmRead(t, h, off, PageSize)
	}
	maxSeen := 0
	for _, n := range reads {
		if n > maxSeen {
			maxSeen = n
		}
	}
	if maxSeen < 16*PageSize {
		t.Fatalf("window never grew: max backend read %d bytes (reads %v)", maxSeen, reads)
	}
	if h.raWindow <= 2 {
		t.Fatalf("raWindow = %d after a long streak", h.raWindow)
	}

	// Seek away: the window resets to the base, and the next streak's
	// first readahead is small again.
	reads = reads[:0]
	warmRead(t, h, 200*PageSize, PageSize) // non-sequential
	if h.raWindow != 2 {
		t.Fatalf("raWindow = %d after seek, want base 2", h.raWindow)
	}
	warmRead(t, h, 201*PageSize, PageSize) // streak restarts
	for _, n := range reads {
		if n > 8*PageSize {
			t.Fatalf("post-seek backend read %d bytes — window did not reset (reads %v)", n, reads)
		}
	}
}

// TestRangeReadaheadWindowGrowth: with httpfs byte-range fetches (the
// 206 path), the adaptive window directly sizes the transfer units — a
// sequential stream's Range requests grow with the streak.
func TestRangeReadaheadWindowGrowth(t *testing.T) {
	big := []byte(patterned(128 * PageSize))
	hfs, ff := newRangeHTTPFS(t, map[string][]byte{"/big.bin": big})
	f := newFS()
	f.Mount("/http", hfs)
	f.SetReadahead(2)

	h := openPaged(t, f, "/http/big.bin")
	var got []byte
	for off := int64(0); off < 64*PageSize; off += PageSize {
		got = append(got, warmRead(t, h, off, PageSize)...)
	}
	if !bytes.Equal(got, big[:64*PageSize]) {
		t.Fatalf("sequential ranged read corrupted data")
	}
	if len(ff.whole) != 0 {
		t.Fatalf("whole-body fetches on the range path: %v", ff.whole)
	}
	first, maxN := int64(-1), int64(0)
	for _, r := range ff.ranges {
		var n int64
		fmt.Sscanf(r[strings.LastIndexByte(r, '+')+1:], "%d", &n)
		if first < 0 {
			first = n
		}
		if n > maxN {
			maxN = n
		}
	}
	if first < 0 {
		t.Fatalf("no Range fetches recorded")
	}
	if maxN < 8*int64(PageSize) || maxN <= first {
		t.Fatalf("Range windows did not grow: first=%d max=%d (%v)", first, maxN, ff.ranges)
	}
}

// arenaAt returns the arena bytes a page reference names.
func arenaAt(f *FileSystem, r PageRef) []byte {
	b, _ := f.pc.pool.run(int(r.Off), int(r.Off)+r.Len)
	return b
}
