package fs

import (
	"crypto/sha256"
	"strings"
	"sync/atomic"

	"repro/internal/abi"
)

// The page cache fronts slow backends (httpfs, zipfs, overlay lower
// layers): file contents are cached in PageSize granules keyed by
// canonical path, with sequential readahead. Opening a read-only file on
// a cacheable backend returns a pagedHandle whose backend handle is
// opened *lazily* — a fully cached file is re-opened and re-read without
// a single backend call.
//
// Pages live in the shared page pool (pagepool.go), so a warm read can
// be answered with pinned page *leases* instead of a payload copy — the
// zero-copy read path. Invalidation rides the same hooks as the dentry
// cache: any mutating operation on a path drops its pages; dropped pages
// with outstanding leases freeze (bytes intact) until the leases return.

// PageSize is the page-cache granule — the ABI's grant granule, since
// leases are handed across the kernel boundary in these units.
const PageSize = abi.GrantPageSize

// maxPageCacheBytes bounds cached content; overflow clears the cache
// (crude, deterministic — the workloads fit comfortably).
const maxPageCacheBytes = 64 << 20

// DefaultReadaheadPages is the base sequential readahead window. The
// window adapts per handle: it doubles on a sequential streak (up to
// MaxReadaheadPages) and resets to the base on a seek, so cold streams
// of large files grow their transfer unit without over-fetching on
// random access.
const DefaultReadaheadPages = 4

// MaxReadaheadPages caps the adaptive readahead window (1 MiB of pages).
const MaxReadaheadPages = 64

type filePages struct {
	pages   map[int64]poolPage // page index -> pooled content (short page = EOF page)
	bytes   int64
	lastUse int64 // pageCache.useClock at the last hit/store (LRU key)
	priv    int   // resident pages in private (non-deduped) slots
}

type pageCache struct {
	files map[string]*filePages
	bytes atomic.Int64
	// pool is the slot arena pages live in — private by default, or a
	// shared cross-Instance arena after SetPagePool. att is this cache's
	// attachment id (its quota account) in the pool.
	pool *pagePool
	att  int

	// dirty holds buffered write-back state per canonical path (see
	// writeback.go); dirtyBytes is the running total the dirty budget
	// bounds. flushErrs records a failed background/overflow flush per
	// path, surfaced at the next fsync on that path; entries carry the
	// generation at record time so a later unrelated file reusing the
	// name can never inherit a dead file's error.
	dirty      map[string]*dirtyFile
	dirtyBytes atomic.Int64
	flushErrs  map[string]flushErr

	// gens tracks an invalidation generation per path. A pagedHandle
	// captures the generation at open; once a write (or copy-up, or
	// unlink+recreate) bumps it, the stale handle bypasses the cache
	// and reads through its own backend handle — the handle keeps
	// POSIX fd semantics, and it can never plant pages for the file
	// the path *now* names. epoch is folded into every generation so
	// that clearing the map (size bound) stales ALL outstanding
	// handles instead of reviving previously-staled ones.
	gens  map[string]uint64
	epoch uint64

	// useClock is a monotonic touch counter driving LRU eviction: every
	// hit or store stamps the file with a fresh value, so "least
	// recently used" is a total, deterministic order (no wall clock).
	// Only this cache's Instance thread touches it.
	useClock int64

	// wstaged marks slots leased out *empty* for write staging
	// (AllocWriteSlots): they hold guest payload, live outside the
	// files map (never evicted, never granted to readers), and are
	// detached from staging ownership when the guest lease returns.
	wstaged map[int]bool

	// dedupOff disables the content-addressed sharing tier for pages
	// this cache stores (ablations and differentials): every page goes
	// to a private slot, exactly the pre-dedup allocator. Pages already
	// resident keep their sharing class.
	dedupOff bool

	// Counters are atomics: the host (a fleet aggregator, a stats
	// poller) may snapshot them via CacheStats while the Instance runs
	// on another thread.
	hits, misses, readaheads atomic.Int64
	// Dedup observability: resident cached pages (logical), resident
	// pages referencing shared slots and their bytes, and — since boot —
	// dedup-eligible stores and index hits among them.
	cachedPages, dedupPages, sharedBytes atomic.Int64
	dedupHits, dedupStores               atomic.Int64
	// Lease counters: pages granted out as leases, leases returned.
	grantedPages, returnedPages atomic.Int64
	// Write-back counters: writes absorbed into dirty extents, flush
	// operations, vectored backend writes the flusher issued,
	// budget-overflow flushes, and age-triggered background flushes.
	bufferedWrites, flushes, flushWrites, overflowFlushes, agedFlushes atomic.Int64
}

func newPageCache() *pageCache {
	pool := newPagePool(poolSlots)
	return &pageCache{
		files:     map[string]*filePages{},
		gens:      map[string]uint64{},
		dirty:     map[string]*dirtyFile{},
		flushErrs: map[string]flushErr{},
		wstaged:   map[int]bool{},
		pool:      pool,
		att:       pool.attach(0),
	}
}

func (c *pageCache) gen(p string) uint64 { return c.epoch<<32 | c.gens[p] }

// touch stamps a file as just-used for LRU ordering.
func (c *pageCache) touch(fp *filePages) {
	c.useClock++
	fp.lastUse = c.useClock
}

func (c *pageCache) file(p string) *filePages {
	fp := c.files[p]
	if fp == nil {
		fp = &filePages{pages: map[int64]poolPage{}}
		c.files[p] = fp
	}
	return fp
}

// releasePage detaches one cached page from this cache: private slots
// release directly (free, or freeze for leaseholders); shared slots drop
// this cache's dedup reference, and the index frees the slot exactly
// once, after the last reference. Maintains the resident counters.
func (c *pageCache) releasePage(pg poolPage) {
	c.cachedPages.Add(-1)
	if pg.shared {
		c.dedupPages.Add(-1)
		c.sharedBytes.Add(-int64(pg.len))
		c.pool.dedupDeref(c.att, pg.slot)
		return
	}
	c.pool.release(pg.slot)
}

// releaseFilePages detaches every slot a file holds (freeing or
// freezing each) without touching the files map.
func (c *pageCache) releaseFilePages(fp *filePages) {
	for _, pg := range fp.pages {
		c.releasePage(pg)
	}
}

// evictAll drops every cached page — the deterministic overflow policy.
// Pinned slots freeze; everything else returns to the free stack.
// Generations are untouched: handles stay current, the content is just
// gone (exactly the old clear-the-map semantics).
func (c *pageCache) evictAll() {
	for _, fp := range c.files {
		c.releaseFilePages(fp)
	}
	clear(c.files)
	c.bytes.Store(0)
}

// evictOneLRU releases the least-recently-used file's pages (ties broken
// by path, so the order is deterministic). Pinned slots freeze as
// everywhere. Returns false when nothing is cached.
func (c *pageCache) evictOneLRU() bool {
	var victim string
	var vfp *filePages
	for p, fp := range c.files {
		if vfp == nil || fp.lastUse < vfp.lastUse ||
			(fp.lastUse == vfp.lastUse && p < victim) {
			victim, vfp = p, fp
		}
	}
	if vfp == nil {
		return false
	}
	c.releaseFilePages(vfp)
	c.bytes.Add(-vfp.bytes)
	delete(c.files, victim)
	return true
}

// evictOneLRUPreferPrivate evicts the least-recently-used file holding
// at least one PRIVATE page, falling back to plain LRU when every
// resident file is fully shared. Used only under arena exhaustion
// (allocNoArena): dropping a shared page frees a physical slot only when
// its last tenant lets go, so private pages go first. Quota-driven
// eviction stays plain LRU — that keeps a tenant's eviction sequence
// identical with dedup on and off, which the differential suite pins.
func (c *pageCache) evictOneLRUPreferPrivate() bool {
	var victim string
	var vfp *filePages
	for p, fp := range c.files {
		if fp.priv == 0 {
			continue
		}
		if vfp == nil || fp.lastUse < vfp.lastUse ||
			(fp.lastUse == vfp.lastUse && p < victim) {
			victim, vfp = p, fp
		}
	}
	if vfp == nil {
		return c.evictOneLRU()
	}
	c.releaseFilePages(vfp)
	c.bytes.Add(-vfp.bytes)
	delete(c.files, victim)
	return true
}

// evictLRU frees budget for need more bytes by evicting whole files in
// least-recently-used order — hot leases' neighbours stay resident under
// arena pressure, unlike the old evict-everything policy.
func (c *pageCache) evictLRU(need int64) {
	for c.bytes.Load()+need > maxPageCacheBytes {
		if !c.evictOneLRU() {
			return
		}
	}
}

// insertPage records a just-allocated (or just-referenced) page under
// (p, pageIdx) and maintains the byte and page counters. Fetches the
// filePages entry fresh: eviction inside store may have dropped p.
func (c *pageCache) insertPage(p string, pageIdx int64, pg poolPage) {
	fp := c.file(p)
	c.touch(fp)
	fp.pages[pageIdx] = pg
	fp.bytes += int64(pg.len)
	c.bytes.Add(int64(pg.len))
	c.cachedPages.Add(1)
	if pg.shared {
		c.dedupPages.Add(1)
		c.sharedBytes.Add(int64(pg.len))
	} else {
		fp.priv++
	}
}

// store caches one page of content for (p, pageIdx). Pages from
// immutable backends (dedup=true) route through the content-addressed
// index: hash the bytes just read, reference the already-resident slot
// on a hit, fill-and-publish on a miss — the hash happens AFTER the
// backend read either way, so a hit and a miss cost identical virtual
// time and dedup can never perturb a tenant's clock. When the pool (or
// the byte budget) is exhausted it evicts cold files in LRU order until
// the page fits; if every slot is pinned the page simply is not cached
// (reads still work through the backend).
func (c *pageCache) store(p string, pageIdx int64, data []byte, dedup bool) {
	if len(data) > PageSize || len(data) == 0 {
		return // defensive: a page never exceeds the granule
	}
	if c.bytes.Load()+int64(len(data)) > maxPageCacheBytes {
		c.evictLRU(int64(len(data)))
	}
	c.touch(c.file(p)) // newest file: evicted last under pressure
	if fp := c.files[p]; fp != nil {
		if old, ok := fp.pages[pageIdx]; ok {
			// Replacing a cached page never rewrites its slot in place:
			// the old slot may be leased out (or shared with other
			// tenants). Detach it and fill a fresh one.
			fp.bytes -= int64(old.len)
			c.bytes.Add(-int64(old.len))
			if !old.shared {
				fp.priv--
			}
			c.releasePage(old)
			delete(fp.pages, pageIdx)
		}
	}
	if dedup && !c.dedupOff {
		done, private := c.storeDedup(p, pageIdx, data)
		if done || !private {
			return
		}
		// Shared budget exhausted: fall through to a private slot.
	}
	slot, st := c.pool.alloc2(c.att)
	for st != allocOK {
		// Exhaustion: evict cold files until a slot frees. Quota pressure
		// (a per-attachment, deterministic condition) evicts plain LRU;
		// arena pressure prefers private pages, whose slots actually
		// free. Eviction may drop p itself (when it is the only file);
		// insertPage re-fetches the entry. Frozen slots free no quota, so
		// the loop ends when the files map empties if every slot is
		// leased.
		var evicted bool
		if st == allocNoArena {
			evicted = c.evictOneLRUPreferPrivate()
		} else {
			evicted = c.evictOneLRU()
		}
		if !evicted {
			return // every quota slot leased out: skip caching this page
		}
		slot, st = c.pool.alloc2(c.att)
	}
	copy(c.pool.page(slot), data)
	c.insertPage(p, pageIdx, poolPage{slot: slot, len: len(data)})
}

// storeDedup runs the content-addressed store: lookup, then
// alloc/fill/publish on a miss. done means the page was handled (cached
// shared, or skipped because nothing more can be evicted); private means
// the caller should fall back to a private slot (shared budget
// exhausted — bytes and clocks identical, only placement differs).
func (c *pageCache) storeDedup(p string, pageIdx int64, data []byte) (done, private bool) {
	c.dedupStores.Add(1)
	h := sha256.Sum256(data)
	for {
		slot, st := c.pool.dedupLookup(c.att, h)
		switch st {
		case dedupHit:
			c.dedupHits.Add(1)
			c.insertPage(p, pageIdx, poolPage{slot: slot, len: len(data), shared: true})
			return true, false
		case dedupNoQuota:
			// The same deterministic condition as a private-alloc quota
			// miss: plain LRU eviction, identical order dedup on or off.
			if !c.evictOneLRU() {
				return true, false
			}
			continue
		}
		slot, st = c.pool.dedupAlloc(c.att)
		switch st {
		case allocOK:
			copy(c.pool.page(slot), data)
			canon := c.pool.dedupPublish(slot, h)
			c.insertPage(p, pageIdx, poolPage{slot: canon, len: len(data), shared: true})
			return true, false
		case allocNoQuota:
			if !c.evictOneLRU() {
				return true, false
			}
		case allocNoArena:
			if !c.evictOneLRUPreferPrivate() {
				return true, false
			}
		case allocNoShared:
			return false, true
		}
	}
}

// dropPages forgets a path's clean pages without bumping its
// generation: the write-back handle's own buffered writes change the
// file's content but not the name→file binding, so outstanding handles
// stay current. Leased slots freeze — the reclaim-before-coalesce
// interlock: a dirty extent overlapping a leased page detaches the page
// here before the new bytes are buffered, so leaseholders keep reading
// the bytes they were granted.
func (c *pageCache) dropPages(p string) {
	if fp, ok := c.files[p]; ok {
		c.releaseFilePages(fp)
		c.bytes.Add(-fp.bytes)
		delete(c.files, p)
	}
}

func (c *pageCache) drop(p string) {
	c.dropPages(p)
	if len(c.gens) >= maxDentries {
		clear(c.gens)
		c.epoch++ // every outstanding handle goes stale, none revive
	}
	c.gens[p]++
}

func (c *pageCache) dropTree(p string) {
	c.drop(p)
	prefix := p
	if prefix != "/" {
		prefix += "/"
	}
	for k, fp := range c.files {
		if strings.HasPrefix(k, prefix) {
			c.releaseFilePages(fp)
			c.bytes.Add(-fp.bytes)
			delete(c.files, k)
			c.gens[k]++
		}
	}
}

// flush drops all cached pages and advances the epoch: handles opened
// before the flush (possibly against a backend a new Mount has since
// shadowed) go permanently stale and bypass the cache. Leased slots
// freeze, as everywhere.
func (c *pageCache) flush() {
	c.evictAll()
	c.epoch++
}

// pageCacheable lets a backend opt in to (or out of) page caching; the
// default is caching read-only backends only. OverlayFS opts in: its
// reads may come from a slow lower layer, and its writes all pass through
// the VFS invalidation hooks.
type pageCacheable interface {
	PageCacheable() bool
}

func cacheableBackend(b Backend) bool {
	if pc, ok := b.(pageCacheable); ok {
		return pc.PageCacheable()
	}
	return b.ReadOnly()
}

// pageDedupable lets a backend opt in to (or out of) the
// content-addressed sharing tier. The default is dedup for read-only
// backends: their pages are immutable, so identical bytes faulted by any
// tenant are the same page forever. OverlayFS opts in even though it is
// writable — every mutation routes through the VFS invalidation hooks
// (copy-up drops the lower page before upper bytes become visible), and
// the store never rewrites a published slot in place.
type pageDedupable interface {
	PageDedupable() bool
}

func dedupableBackend(b Backend) bool {
	if pd, ok := b.(pageDedupable); ok {
		return pd.PageDedupable()
	}
	return b.ReadOnly()
}

// SliceReader is an optional FileHandle fast path for backends whose
// file bytes are fully resident in host memory (zipfs members, fetched
// httpfs bodies): PreadSlice returns a stable view of [off, off+n)
// (clamped to EOF) without staging through a fresh allocation. ok=false
// means "not resident, use Pread". Callers must copy before the bytes
// escape — the view aliases the backend's cache.
type SliceReader interface {
	PreadSlice(off int64, n int) ([]byte, bool)
}

// backedRead reads [off, off+n) from a backend handle, preferring the
// zero-staging SliceReader path so the caller's copy (into an arena slot
// or a reply buffer) is the ONLY copy of the fault. Both paths are
// synchronous for resident backends and carry no virtual-time charge, so
// the fast path never perturbs clocks.
func backedRead(fh FileHandle, off int64, n int, cb func([]byte, abi.Errno)) {
	if sr, ok := fh.(SliceReader); ok {
		if view, ok2 := sr.PreadSlice(off, n); ok2 {
			cb(view, abi.OK)
			return
		}
	}
	fh.Pread(off, n, cb)
}

// pagedHandle is a read-only FileHandle served from the page cache. The
// backend handle behind it is opened on first miss and memoized; size and
// stat are snapshots from open time (the handle is read-only, and writers
// going through the VFS invalidate the pages, not the open snapshot).
type pagedHandle struct {
	fs    *FileSystem
	path  string // canonical VFS path (page-cache key)
	st    abi.Stat
	gen   uint64                               // page-cache generation at open
	dedup bool                                 // backend is immutable: dedup its pages
	open  func(cb func(FileHandle, abi.Errno)) // lazy backend open

	inner    FileHandle
	lastEnd  int64 // end offset of the previous read (sequential detector)
	raBusy   bool  // one readahead in flight per handle
	raWindow int   // adaptive readahead window, pages (0 until sequential)
}

// current reports whether the handle may use the page cache: a bumped
// generation means the path was mutated (or renamed over) since open,
// and this handle may be bound to a different file than the path names.
func (h *pagedHandle) current() bool { return h.fs.pc.gen(h.path) == h.gen }

func (h *pagedHandle) ensureInner(cb func(FileHandle, abi.Errno)) {
	if h.inner != nil {
		cb(h.inner, abi.OK)
		return
	}
	h.open(func(fh FileHandle, err abi.Errno) {
		if err == abi.OK {
			h.inner = fh
		}
		cb(fh, err)
	})
}

// adaptWindow updates the adaptive readahead window for a read at off:
// double on a sequential streak (capped), reset to the base on a seek.
func (h *pagedHandle) adaptWindow(sequential bool) {
	base := h.fs.readaheadPages
	switch {
	case !sequential:
		h.raWindow = base
	case h.raWindow == 0:
		h.raWindow = base
	case h.raWindow < MaxReadaheadPages:
		h.raWindow *= 2
		if h.raWindow > MaxReadaheadPages {
			h.raWindow = MaxReadaheadPages
		}
	}
}

// cachedRange assembles [off, end) from cached pages; ok is false on any
// missing page. A short page marks EOF: assembly stops there.
func (h *pagedHandle) cachedRange(off, end int64) ([]byte, bool) {
	fp := h.fs.pc.files[h.path]
	if fp == nil {
		return nil, false
	}
	h.fs.pc.touch(fp)
	pool := h.fs.pc.pool
	out := make([]byte, 0, end-off)
	for pos := off; pos < end; {
		idx := pos / PageSize
		pg, okp := fp.pages[idx]
		if !okp {
			return nil, false
		}
		page := pool.data(pg)
		pstart := idx * PageSize
		lo := pos - pstart
		if lo >= int64(len(page)) {
			break // EOF inside this page
		}
		hi := end - pstart
		if hi > int64(len(page)) {
			hi = int64(len(page))
		}
		out = append(out, page[lo:hi]...)
		if int64(len(page)) < PageSize && pstart+int64(len(page)) < end {
			break // short page = end of file
		}
		pos = pstart + hi
	}
	return out, true
}

// PreadRef implements RefReader: the zero-copy fast path. When every
// byte of [off, off+n) is resident and the handle is current, the pages
// are pinned and returned as PageRefs — no bytes move. Refusals (cold
// pages, dirty write-back state, stale generation, too many refs for
// max) pin nothing and send the caller down the Pread copy path, which
// produces identical bytes. An empty ref list with ok=true is a clean
// EOF: zero bytes, zero copies.
func (h *pagedHandle) PreadRef(off int64, n, max int) ([]PageRef, bool) {
	if off < 0 || n <= 0 {
		return nil, false
	}
	pc := h.fs.pc
	if pc.dirty[h.path] != nil || !h.current() {
		return nil, false
	}
	fp := pc.files[h.path]
	if fp == nil {
		return nil, false
	}
	end := off + int64(n)
	var refs []PageRef
	var granted int64
	for pos := off; pos < end; {
		idx := pos / PageSize
		pg, okp := fp.pages[idx]
		if !okp {
			return nil, false
		}
		pstart := idx * PageSize
		lo := pos - pstart
		if lo >= int64(pg.len) {
			break // EOF inside this page
		}
		hi := end - pstart
		if hi > int64(pg.len) {
			hi = int64(pg.len)
		}
		if len(refs) >= max {
			return nil, false // grant area too small; copy path instead
		}
		refs = append(refs, PageRef{
			Slot: pg.slot,
			Gen:  h.gen,
			Off:  int64(pg.slot)*PageSize + lo,
			Len:  int(hi - lo),
		})
		granted += hi - lo
		if pg.len < PageSize && pstart+int64(pg.len) < end {
			break // short page = end of file
		}
		pos = pstart + hi
	}
	for _, r := range refs {
		pc.pool.pin(r.Slot)
	}
	pc.touch(fp)
	pc.hits.Add(1)
	pc.grantedPages.Add(int64(len(refs)))
	sequential := off == h.lastEnd
	h.adaptWindow(sequential)
	h.lastEnd = off + granted
	if sequential {
		h.readahead(end)
	}
	return refs, true
}

// storeRange splits backend data read at page-aligned start into pages.
func (h *pagedHandle) storeRange(start int64, data []byte) {
	for o := int64(0); o < int64(len(data)); o += PageSize {
		end := o + PageSize
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		h.fs.pc.store(h.path, (start+o)/PageSize, data[o:end], h.dedup)
	}
}

// Pread implements FileHandle: serve from pages, fill on miss with one
// page-aligned backend read, then kick sequential readahead. EOF comes
// from short backend reads (reflected as short cached pages), never from
// the open-time size snapshot — the file may have grown since.
//
// A read of a path with buffered write-back state is a barrier: the
// dirty extents flush first, so cross-handle reads observe completed
// writes (POSIX read-after-write), whichever handle buffered them.
func (h *pagedHandle) Pread(off int64, n int, cb func([]byte, abi.Errno)) {
	if h.fs.pc.dirty[h.path] != nil {
		h.fs.flushPath(h.path, func(err abi.Errno) {
			h.fs.recordFlushErr(h.path, err)
			h.preadResolved(off, n, cb)
		})
		return
	}
	h.preadResolved(off, n, cb)
}

func (h *pagedHandle) preadResolved(off int64, n int, cb func([]byte, abi.Errno)) {
	if off < 0 || n <= 0 {
		cb(nil, abi.OK)
		return
	}
	if !h.current() {
		// Stale handle: read straight through its own backend handle.
		h.ensureInner(func(fh FileHandle, err abi.Errno) {
			if err != abi.OK {
				cb(nil, err)
				return
			}
			fh.Pread(off, n, cb)
		})
		return
	}
	end := off + int64(n)
	sequential := off == h.lastEnd
	if data, ok := h.cachedRange(off, end); ok {
		h.fs.pc.hits.Add(1)
		h.adaptWindow(sequential)
		h.lastEnd = off + int64(len(data))
		if sequential {
			h.readahead(end)
		}
		cb(data, abi.OK)
		return
	}
	h.fs.pc.misses.Add(1)
	astart := (off / PageSize) * PageSize
	aend := ((end + PageSize - 1) / PageSize) * PageSize
	h.ensureInner(func(fh FileHandle, err abi.Errno) {
		if err != abi.OK {
			cb(nil, err)
			return
		}
		// backedRead's view is only copied from (into arena slots, into
		// out) before the callback returns, so the slice never escapes.
		backedRead(fh, astart, int(aend-astart), func(data []byte, err abi.Errno) {
			if err != abi.OK {
				cb(nil, err)
				return
			}
			if h.current() { // the path may have been mutated mid-read
				h.storeRange(astart, data)
			}
			lo := off - astart
			if lo > int64(len(data)) {
				lo = int64(len(data))
			}
			hi := end - astart
			if hi > int64(len(data)) {
				hi = int64(len(data))
			}
			out := make([]byte, hi-lo)
			copy(out, data[lo:hi])
			h.adaptWindow(sequential)
			h.lastEnd = off + int64(len(out))
			if sequential {
				h.readahead(end)
			}
			cb(out, abi.OK)
		})
	})
}

// readahead prefetches the next window of pages after end. Completion is
// fire-and-forget: the pages land in the cache whenever the backend
// delivers them. The window is the handle's adaptive one, so with httpfs
// byte-range fetches the transfer unit grows with the sequential streak.
func (h *pagedHandle) readahead(end int64) {
	window := int64(h.raWindow)
	if window <= 0 || h.raBusy || end >= h.st.Size || !h.current() {
		return
	}
	start := ((end + PageSize - 1) / PageSize) * PageSize
	fp := h.fs.pc.file(h.path)
	for start < h.st.Size {
		if _, ok := fp.pages[start/PageSize]; !ok {
			break
		}
		start += PageSize
	}
	if start >= h.st.Size {
		return
	}
	raEnd := start + window*PageSize
	if raEnd > h.st.Size {
		raEnd = h.st.Size
	}
	h.raBusy = true
	h.ensureInner(func(fh FileHandle, err abi.Errno) {
		if err != abi.OK {
			h.raBusy = false
			return
		}
		backedRead(fh, start, int(raEnd-start), func(data []byte, err abi.Errno) {
			h.raBusy = false
			if err != abi.OK || !h.current() {
				return
			}
			h.fs.pc.readaheads.Add(1)
			h.storeRange(start, data)
		})
	})
}

// Preadv implements FileHandle: one cache-assembled (or backend) read,
// returned as a single segment — callers scatter it themselves.
func (h *pagedHandle) Preadv(off int64, lens []int, cb func([][]byte, abi.Errno)) {
	genericPreadv(h, off, lens, cb)
}

// Pwrite implements FileHandle. The handle is read-only in practice, but
// the old layer delegated stray writes to the backend; keep that, and
// drop the pages first so the cache can never serve stale bytes.
func (h *pagedHandle) Pwrite(off int64, data []byte, cb func(int, abi.Errno)) {
	h.fs.invalidatePath(h.path)
	h.ensureInner(func(fh FileHandle, err abi.Errno) {
		if err != abi.OK {
			cb(0, err)
			return
		}
		fh.Pwrite(off, data, func(n int, err abi.Errno) {
			h.fs.invalidatePath(h.path)
			cb(n, err)
		})
	})
}

// Pwritev implements FileHandle.
func (h *pagedHandle) Pwritev(off int64, bufs [][]byte, cb func(int, abi.Errno)) {
	h.fs.invalidatePath(h.path)
	h.ensureInner(func(fh FileHandle, err abi.Errno) {
		if err != abi.OK {
			cb(0, err)
			return
		}
		fh.Pwritev(off, bufs, func(n int, err abi.Errno) {
			h.fs.invalidatePath(h.path)
			cb(n, err)
		})
	})
}

// Stat implements FileHandle: the open-time snapshot (read-only handle).
func (h *pagedHandle) Stat(cb func(abi.Stat, abi.Errno)) {
	if h.inner != nil {
		h.inner.Stat(cb)
		return
	}
	cb(h.st, abi.OK)
}

// Truncate implements FileHandle (delegates; invalidates around it).
func (h *pagedHandle) Truncate(size int64, cb func(abi.Errno)) {
	h.fs.invalidatePath(h.path)
	h.ensureInner(func(fh FileHandle, err abi.Errno) {
		if err != abi.OK {
			cb(err)
			return
		}
		fh.Truncate(size, func(err abi.Errno) {
			h.fs.invalidatePath(h.path)
			cb(err)
		})
	})
}

// Close implements FileHandle.
func (h *pagedHandle) Close(cb func(abi.Errno)) {
	if h.inner != nil {
		inner := h.inner
		h.inner = nil
		inner.Close(cb)
		return
	}
	cb(abi.OK)
}
