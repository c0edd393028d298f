package fs

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/abi"
)

// newArenaFS builds a FileSystem with files on a read-only memfs mounted
// at /ro, attached to pool when it is non-nil. It keeps its own clock, so
// shards built with it may run on different goroutines.
func newArenaFS(t *testing.T, pool *PagePool, files map[string]string) *FileSystem {
	t.Helper()
	var tick int64
	clk := func() int64 { tick++; return tick }
	img := NewMemFS(clk)
	stage := NewFileSystem(img, clk)
	for p, content := range files {
		mustWrite(t, stage, p, content)
	}
	img.SetReadOnly()
	f := NewFileSystem(NewMemFS(clk), clk)
	if pool != nil {
		f.SetPagePool(pool, 0)
	}
	mustMkdirAll(t, f, "/ro")
	f.Mount("/ro", img)
	return f
}

// readFile reads a whole file without failing the test, so shards on
// other goroutines can call it.
func readFile(f *FileSystem, p string) (string, abi.Errno) {
	var data []byte
	var got abi.Errno = -1
	f.ReadFile(p, func(b []byte, err abi.Errno) { data, got = b, err })
	return string(data), got
}

// TestArenaChunksStable: the page-pool arena grows a chunk at a time as
// the slot high-water mark rises, never moving a chunk it already
// handed out, and shards growing one shared arena concurrently are
// race-free.
func TestArenaChunksStable(t *testing.T) {
	small := "one short page"
	big := distinctPages("big", 2*ChunkSlots*PageSize)
	f := newArenaFS(t, nil, map[string]string{"/small.txt": small, "/big.bin": big})
	pp := f.pc.pool
	if n := pp.chunksAllocated(); n != 0 {
		t.Fatalf("%d chunks allocated before any page was cached", n)
	}

	// One cached page allocates one chunk.
	if got := mustRead(t, f, "/ro/small.txt"); got != small {
		t.Fatalf("read %q", got)
	}
	if n, pages := pp.chunksAllocated(), f.CacheStats().CachedPages; n != 1 || pages != 1 {
		t.Fatalf("one cached page: %d chunks, %d pages; want 1 and 1", n, pages)
	}

	// A grant view taken before growth...
	refs, ok := openPaged(t, f, "/ro/small.txt").PreadRef(0, len(small), 4)
	if !ok || len(refs) != 1 {
		t.Fatalf("PreadRef on a warm page = (%d refs, %v)", len(refs), ok)
	}
	view := arenaAt(f, refs[0])
	size, chunk := f.PagePoolChunks()
	sabView := chunk(int(refs[0].Off / ChunkBytes))[refs[0].Off%ChunkBytes:][:refs[0].Len]

	// ...survives the arena growing two more chunks.
	if got := mustRead(t, f, "/ro/big.bin"); got != big {
		t.Fatal("big file read back wrong")
	}
	if n := pp.chunksAllocated(); n != 3 {
		t.Fatalf("after caching %d pages: %d chunks, want 3", 1+len(big)/PageSize, n)
	}
	if string(view) != small || string(sabView) != small {
		t.Fatalf("grant view changed across growth: %q / %q", view, sabView)
	}
	if now := arenaAt(f, refs[0]); &now[0] != &view[0] || &sabView[0] != &view[0] {
		t.Fatal("the first chunk moved when the arena grew")
	}
	if size != pp.slots*PageSize {
		t.Fatalf("chunked view size %d, want %d", size, pp.slots*PageSize)
	}
	f.UnleasePage(refs[0].Slot)

	// Two fleet shards grow one shared arena concurrently; each reads
	// back its own distinct bytes (the race detector referees).
	pool := NewPagePool(8 * ChunkSlots)
	var shards []*FileSystem
	var want []string
	for s := 0; s < 2; s++ {
		content := distinctPages(fmt.Sprintf("shard%d", s), 3*ChunkSlots*PageSize/2)
		want = append(want, content)
		shards = append(shards, newArenaFS(t, pool, map[string]string{"/data.bin": content}))
	}
	var wg sync.WaitGroup
	errs := make([]error, len(shards))
	for s, f := range shards {
		wg.Add(1)
		go func(s int, f *FileSystem) {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				got, err := readFile(f, "/ro/data.bin")
				if err != abi.OK || got != want[s] {
					errs[s] = fmt.Errorf("shard %d round %d: err %v, bytes equal %v", s, round, err, got == want[s])
					return
				}
			}
		}(s, f)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Slots go lowest first whoever asks, so 2 x 1.5 chunks of pages
	// fill exactly three chunks.
	if n := pool.pp.chunksAllocated(); n != 3 {
		t.Fatalf("two shards caching %d pages each hold %d chunks, want 3", 3*ChunkSlots/2, n)
	}
	for s, f := range shards {
		if n := f.CacheStats().CachedPages; n != int64(3*ChunkSlots/2) {
			t.Fatalf("shard %d caches %d pages, want %d", s, n, 3*ChunkSlots/2)
		}
	}
}

// distinctPages is n bytes in which no two PageSize pages are equal (so
// content dedup cannot fold them), tagged so no two tags share a page.
func distinctPages(tag string, n int) string {
	var sb strings.Builder
	for sb.Len() < n {
		fmt.Fprintf(&sb, "%s-%08d|", tag, sb.Len())
	}
	return sb.String()[:n]
}
