package fs

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"

	"repro/internal/abi"
)

// The page pool is the shared-memory arena every cached page lives in:
// one flat region of PageSize slots the kernel exports to processes as a
// SharedArrayBuffer (the "mapped page cache"). Storing pages in slots —
// instead of per-page Go allocations — is what makes the zero-copy read
// path possible: a grant names (slot, arena offset, length) and the
// process reads the bytes through its own mapping of the arena, no
// kernel copy.
//
// Leases make that safe. A granted page is *pinned*; a pinned slot's
// bytes are never rewritten and the slot is never recycled. When an
// invalidation, flush, or cache eviction drops a pinned page, the slot
// detaches from the cache (no new reads or grants see it) but *freezes*
// — the bytes stay intact for the outstanding leaseholders — and is
// reclaimed for reuse only when the last lease is returned. This is the
// pipe layer's owned-segment discipline applied to cache pages:
// ownership of the bytes moves to the process until it hands them back.
//
// Concurrency. A pool may be shared by several FileSystems, each living
// in its own deterministic Instance running on its own host thread (the
// fleet scheduler): the arena is the ONLY structure those shards touch
// concurrently, so the pin/lease/freeze discipline is a real concurrent
// data structure. Each slot's lease state is one atomic word (a pin
// count plus a frozen bit) updated by CAS; the free stack and ownership
// bookkeeping sit behind a mutex taken only on alloc and on the final
// free. Every attached cache draws from its own slot *quota*, so one
// shard's allocation success never depends on how busy its neighbours
// are — each Instance stays bit-identical to its serial run while the
// slots interleave freely in the arena.

// poolSlots is the default arena size: maxPageCacheBytes of PageSize
// slots (the whole budget of a private, single-FileSystem pool).
const poolSlots = maxPageCacheBytes / PageSize

// DefaultPoolSlots is the private pool's slot capacity. A fleet shard
// given this quota in a shared arena hits slot exhaustion at exactly the
// same point a private-pool instance would, so its virtual clock is
// bit-identical to a serial run.
const DefaultPoolSlots = poolSlots

// slotFrozen marks a slot dropped from its cache while pinned (bytes
// preserved, freed on last unpin). The low bits are the pin count.
const slotFrozen = uint32(1) << 31

// Allocation outcomes. Callers that evict on failure need to know WHY an
// allocation failed: quota exhaustion is a per-attachment, deterministic
// condition (evict in plain LRU order — identical with dedup on or off),
// while arena exhaustion is a cross-tenant pressure condition (prefer
// evicting private pages: dropping a shared page frees a physical slot
// only when its last tenant lets go).
const (
	allocOK       = iota
	allocNoQuota  // attachment at its (logical) slot quota
	allocNoArena  // free stack empty: every slot live or frozen
	allocNoShared // dedup tier's shared budget exhausted (dedupAlloc only)
)

// Dedup lookup outcomes.
const (
	dedupHit     = iota // content already resident; reference taken
	dedupMiss           // no entry: caller fills a fresh slot and publishes
	dedupNoQuota        // entry exists but the attachment is at quota
)

// dedupEntry is one content-addressed shared page: the index key it is
// published under and the number of outstanding references (page-cache
// pages and image-store pages across every attachment). Guarded by the
// pool mutex.
type dedupEntry struct {
	hash [32]byte
	refs int
}

// ChunkSlots is the arena's growth granule: the arena is a fixed-length
// directory of chunks of ChunkSlots slots (ChunkBytes bytes), and a
// chunk is allocated when the slot high-water mark first reaches it.
// Slots are handed out lowest first, so an instance whose cache stays
// small holds a few chunks instead of the whole arena. A page never
// straddles two chunks, and a chunk never moves once allocated: grants
// and kernel views alias it.
const (
	ChunkSlots = 64
	ChunkBytes = ChunkSlots * PageSize
)

// arenaChunk is one allocated stretch of the arena.
type arenaChunk struct{ b []byte }

// pagePool is the slot allocator over the shared arena.
type pagePool struct {
	slots int

	allocOnce sync.Once
	// chunks is the arena's chunk directory: its length is fixed by
	// ensure, and each entry is published atomically when the chunk is
	// allocated (under mu, by the allocation that first reaches it), so
	// shards reading pages they hold never need the lock.
	chunks []atomic.Pointer[arenaChunk]

	// state holds each slot's lease word: pin count in the low 31 bits,
	// slotFrozen in the top bit. Transitions are CAS-only, so pin and
	// unpin from different shards never take a lock.
	state []atomic.Uint32

	// mu guards the free stack, the per-attachment accounting, and the
	// dedup index. owner maps an allocated slot to the attachment that
	// drew it; used/quota/sharedRefs are indexed by attachment id. A
	// slot stays charged to its owner until it physically returns to
	// the free stack (frozen slots keep their charge), so sum(used)
	// never exceeds the arena and one shard's quota headroom is always
	// honourable. sharedRefs is the LOGICAL side of dedup accounting:
	// each content-addressed page an attachment references counts
	// against that attachment's quota exactly as if it had allocated a
	// private slot — the property that keeps a tenant's cache behaviour
	// (and so its virtual clock) independent of who else shares the
	// bytes — while the physical slot is charged to the dedup tier's
	// own attachment (the shared budget).
	mu         sync.Mutex
	free       []int
	owner      []int32
	used       []int
	quota      []int
	sharedRefs []int

	// Content-addressed dedup index: hash -> slot for every published
	// immutable page, with per-slot reference counts. dedupAtt is the
	// attachment physical shared slots are charged to (-1 until first
	// use). The release/pin race that makes release() safe elsewhere
	// holds here too: an entry's refcount reaches zero only when no
	// attachment still maps the page, so nobody can start a new pin
	// from a cache reference; outstanding grant leases freeze the slot
	// as usual.
	dedupIdx map[[32]byte]int
	dedupEnt map[int]*dedupEntry
	dedupAtt int

	pinned atomic.Int64 // slots with pins > 0 (diagnostics)

	// Dedup observability, all atomic so the host can poll while shards
	// run: resident entries, outstanding references, lookup hits.
	dedupEntries atomic.Int64
	dedupRefsN   atomic.Int64
	dedupHitsN   atomic.Int64
}

func newPagePool(slots int) *pagePool {
	if slots <= 0 {
		slots = poolSlots
	}
	return &pagePool{slots: slots, dedupAtt: -1}
}

// ensure sets up the slot bookkeeping and the empty chunk directory on
// first use; chunks themselves are allocated as slots are taken.
func (pp *pagePool) ensure() {
	pp.allocOnce.Do(func() {
		pp.chunks = make([]atomic.Pointer[arenaChunk], (pp.slots+ChunkSlots-1)/ChunkSlots)
		pp.state = make([]atomic.Uint32, pp.slots)
		pp.owner = make([]int32, pp.slots)
		for i := range pp.owner {
			pp.owner[i] = -1
		}
		pp.free = make([]int, pp.slots)
		// Ascending allocation order (slot 0 first) keeps runs deterministic.
		for i := range pp.free {
			pp.free[i] = pp.slots - 1 - i
		}
	})
}

// attach registers one cache as a pool client with a slot quota and
// returns its attachment id. quota <= 0 means the whole arena.
func (pp *pagePool) attach(quota int) int {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	return pp.attachLocked(quota)
}

func (pp *pagePool) attachLocked(quota int) int {
	if quota <= 0 || quota > pp.slots {
		quota = pp.slots
	}
	pp.used = append(pp.used, 0)
	pp.quota = append(pp.quota, quota)
	pp.sharedRefs = append(pp.sharedRefs, 0)
	return len(pp.used) - 1
}

// quotaFreeLocked reports whether att has headroom for one more page.
// Quota is LOGICAL: private slots the attachment owns plus shared pages
// it references, so an attachment's exhaustion point is identical
// whether dedup shares its bytes or not.
func (pp *pagePool) quotaFreeLocked(att int) bool {
	return pp.used[att]+pp.sharedRefs[att] < pp.quota[att]
}

// alloc takes a free slot for attachment att; ok is false when att is at
// its quota or every slot is live or frozen (the caller evicts, or skips
// caching). Quota exhaustion depends only on att's own pages, so a
// shard's cache behaviour is independent of its neighbours.
func (pp *pagePool) alloc(att int) (int, bool) {
	slot, st := pp.alloc2(att)
	return slot, st == allocOK
}

// alloc2 is alloc with the failure reason: allocNoQuota is deterministic
// per-attachment pressure, allocNoArena is cross-tenant physical
// pressure (the caller may prefer evicting private pages for the
// latter).
func (pp *pagePool) alloc2(att int) (int, int) {
	pp.ensure()
	pp.mu.Lock()
	defer pp.mu.Unlock()
	if !pp.quotaFreeLocked(att) {
		return 0, allocNoQuota
	}
	n := len(pp.free)
	if n == 0 {
		return 0, allocNoArena
	}
	return pp.takeFreeLocked(att), allocOK
}

func (pp *pagePool) takeFreeLocked(att int) int {
	n := len(pp.free)
	slot := pp.free[n-1]
	pp.free = pp.free[:n-1]
	pp.owner[slot] = int32(att)
	pp.used[att]++
	if c := &pp.chunks[slot/ChunkSlots]; c.Load() == nil {
		first := slot / ChunkSlots * ChunkSlots
		c.Store(&arenaChunk{b: make([]byte, min(ChunkSlots, pp.slots-first)*PageSize)})
	}
	return slot
}

// page returns slot's PageSize bytes of the arena, cap-clamped so no
// append through it reaches a neighbouring slot. Every arena access goes
// through here; the slot must have been allocated at least once.
func (pp *pagePool) page(slot int) []byte {
	c := pp.chunks[slot/ChunkSlots].Load()
	o := slot % ChunkSlots * PageSize
	return c.b[o : o+PageSize : o+PageSize]
}

// run returns the arena bytes [base, end) — byte offsets, as grants name
// them — when they lie inside one chunk (a run of adjacent slots can be
// aliased as one slice only there).
func (pp *pagePool) run(base, end int) ([]byte, bool) {
	if base/ChunkBytes != (end-1)/ChunkBytes {
		return nil, false
	}
	c := pp.chunks[base/ChunkBytes].Load()
	lo, hi := base%ChunkBytes, (end-1)%ChunkBytes+1
	return c.b[lo:hi:hi], true
}

// hasChunk reports whether slot's chunk is allocated, so its bytes may
// be addressed.
func (pp *pagePool) hasChunk(slot int) bool {
	return pp.chunks != nil && pp.chunks[slot/ChunkSlots].Load() != nil
}

// chunk returns chunk i's bytes (nil while unallocated).
func (pp *pagePool) chunk(i int) []byte {
	if c := pp.chunks[i].Load(); c != nil {
		return c.b
	}
	return nil
}

// chunksAllocated counts allocated chunks (tests/diagnostics).
func (pp *pagePool) chunksAllocated() int {
	n := 0
	for i := range pp.chunks {
		if pp.chunks[i].Load() != nil {
			n++
		}
	}
	return n
}

// freeSlot returns a slot to the free stack and uncharges its owner.
// The mutex acquire/release pairs with the next alloc, so the bytes a
// leaseholder read before its final unpin happen-before the next
// owner's rewrite.
func (pp *pagePool) freeSlot(slot int) {
	pp.mu.Lock()
	pp.freeSlotLocked(slot)
	pp.mu.Unlock()
}

func (pp *pagePool) freeSlotLocked(slot int) {
	if att := pp.owner[slot]; att >= 0 {
		pp.used[att]--
		pp.owner[slot] = -1
	}
	pp.free = append(pp.free, slot)
}

// release detaches a slot from its cache: free immediately when no
// leases are outstanding, otherwise freeze it until the last unpin. Only
// the owning cache releases a slot (it just removed the page from its
// own maps), so release never races another release or pin on the same
// slot — but it does race unpin, and the single-word CAS decides exactly
// one of them frees the slot.
func (pp *pagePool) release(slot int) {
	for {
		s := pp.state[slot].Load()
		if s&^slotFrozen == 0 {
			pp.freeSlot(slot)
			return
		}
		if pp.state[slot].CompareAndSwap(s, s|slotFrozen) {
			return
		}
	}
}

// pin takes one lease on a slot.
func (pp *pagePool) pin(slot int) {
	for {
		s := pp.state[slot].Load()
		if pp.state[slot].CompareAndSwap(s, s+1) {
			if s&^slotFrozen == 0 {
				pp.pinned.Add(1)
			}
			return
		}
	}
}

// unpin returns one lease; a frozen slot whose last lease returns goes
// back on the free stack.
func (pp *pagePool) unpin(slot int) bool {
	if slot < 0 || slot >= pp.slots || pp.state == nil {
		return false
	}
	for {
		s := pp.state[slot].Load()
		if s&^slotFrozen == 0 {
			return false
		}
		ns := s - 1
		freeing := false
		if ns == slotFrozen { // last lease on a frozen slot
			ns = 0
			freeing = true
		}
		if pp.state[slot].CompareAndSwap(s, ns) {
			if ns&^slotFrozen == 0 {
				pp.pinned.Add(-1)
			}
			if freeing {
				pp.freeSlot(slot)
			}
			return true
		}
	}
}

// pinCount returns a slot's outstanding lease count (tests/diagnostics).
func (pp *pagePool) pinCount(slot int) int {
	return int(pp.state[slot].Load() &^ slotFrozen)
}

// isFrozen reports whether a slot is detached-but-leased (tests).
func (pp *pagePool) isFrozen(slot int) bool {
	return pp.state[slot].Load()&slotFrozen != 0
}

// isFree reports whether a slot is on the free stack (tests).
func (pp *pagePool) isFree(slot int) bool {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	for _, s := range pp.free {
		if s == slot {
			return true
		}
	}
	return false
}

// freeCount returns the free-stack depth (tests/diagnostics).
func (pp *pagePool) freeCount() int {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	return len(pp.free)
}

// usedBy returns the slots currently charged to an attachment (tests).
func (pp *pagePool) usedBy(att int) int {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	return pp.used[att]
}

// sharedBy returns the shared-page references charged to an attachment
// (tests/diagnostics).
func (pp *pagePool) sharedBy(att int) int {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	return pp.sharedRefs[att]
}

// ---------------------------------------------------------------------------
// Content-addressed dedup tier.
// ---------------------------------------------------------------------------
//
// The flow a caller drives (pageCache.storeDedup, ImageStore.Put):
//
//	dedupLookup(att, hash)  -> hit: reference taken, done.
//	dedupAlloc(att)         -> fresh unpublished slot charged to the
//	                           shared budget; fill it OUTSIDE the mutex
//	                           (nobody else can see it yet), then
//	dedupPublish(slot,hash) -> the canonical slot for that content; if a
//	                           concurrent filler won the race the fresh
//	                           slot frees and the canonical gains a ref.
//	dedupDeref(att, slot)   -> drop one reference; the last one unpins
//	                           the entry from the index and releases the
//	                           slot (free, or frozen for grant leases).
//
// Determinism: dedup happens AFTER the backend read (the caller hashes
// the bytes it just fetched), so a hit and a miss cost the same virtual
// time, and quota is charged logically per reference, so a tenant's
// eviction sequence is identical with dedup on, off, or racing other
// tenants. The win is memory, never the clock.

func (pp *pagePool) ensureDedupLocked() {
	if pp.dedupAtt < 0 {
		pp.dedupAtt = pp.attachLocked(0)
		pp.dedupIdx = make(map[[32]byte]int)
		pp.dedupEnt = make(map[int]*dedupEntry)
	}
}

// dedupLookup takes a reference on the published page for hash h, if
// any. dedupHit: slot valid, reference charged to att. dedupNoQuota: the
// content is resident but att is at quota (evict and retry, or skip).
// dedupMiss: not resident — alloc/fill/publish.
func (pp *pagePool) dedupLookup(att int, h [32]byte) (int, int) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	if pp.dedupIdx == nil {
		return 0, dedupMiss
	}
	slot, ok := pp.dedupIdx[h]
	if !ok {
		return 0, dedupMiss
	}
	if !pp.quotaFreeLocked(att) {
		return 0, dedupNoQuota
	}
	pp.dedupEnt[slot].refs++
	pp.sharedRefs[att]++
	pp.dedupRefsN.Add(1)
	pp.dedupHitsN.Add(1)
	return slot, dedupHit
}

// dedupAlloc draws a fresh slot for a page about to be published:
// physically charged to the shared budget, logically charged to att.
// allocNoShared means the shared budget is exhausted — the caller falls
// back to a private slot (bytes and clocks identical, only placement
// differs).
func (pp *pagePool) dedupAlloc(att int) (int, int) {
	pp.ensure()
	pp.mu.Lock()
	defer pp.mu.Unlock()
	if !pp.quotaFreeLocked(att) {
		return 0, allocNoQuota
	}
	pp.ensureDedupLocked()
	if pp.used[pp.dedupAtt] >= pp.quota[pp.dedupAtt] {
		return 0, allocNoShared
	}
	if len(pp.free) == 0 {
		return 0, allocNoArena
	}
	slot := pp.takeFreeLocked(pp.dedupAtt)
	pp.sharedRefs[att]++
	return slot, allocOK
}

// dedupPublish indexes a freshly filled slot under its content hash and
// returns the canonical slot for that content. If a concurrent filler
// published the same hash first, the loser's slot frees (unpinned,
// unpublished, invisible to everyone) and its already-charged reference
// moves to the winner.
func (pp *pagePool) dedupPublish(slot int, h [32]byte) int {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	if canon, ok := pp.dedupIdx[h]; ok {
		pp.dedupEnt[canon].refs++
		pp.dedupRefsN.Add(1)
		pp.freeSlotLocked(slot)
		return canon
	}
	pp.dedupIdx[h] = slot
	pp.dedupEnt[slot] = &dedupEntry{hash: h, refs: 1}
	pp.dedupRefsN.Add(1)
	pp.dedupEntries.Add(1)
	return slot
}

// dedupDeref drops att's reference on a shared slot. The last reference
// unpublishes the entry — no attachment maps the page any more, so no
// new pin can start — and releases the slot: straight to the free stack,
// or frozen while grant leases are still out.
func (pp *pagePool) dedupDeref(att, slot int) {
	pp.mu.Lock()
	e := pp.dedupEnt[slot]
	if e == nil {
		pp.mu.Unlock()
		pp.release(slot)
		return
	}
	e.refs--
	pp.sharedRefs[att]--
	pp.dedupRefsN.Add(-1)
	last := e.refs == 0
	if last {
		delete(pp.dedupIdx, e.hash)
		delete(pp.dedupEnt, slot)
		pp.dedupEntries.Add(-1)
	}
	pp.mu.Unlock()
	if last {
		pp.release(slot)
	}
}

// isDedup reports whether a slot is published in the dedup index
// (tests).
func (pp *pagePool) isDedup(slot int) bool {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	return pp.dedupEnt[slot] != nil
}

// data returns the live bytes of a slot's page.
func (pp *pagePool) data(pg poolPage) []byte {
	return pp.page(pg.slot)[:pg.len]
}

// poolPage is one cached page: a pool slot holding len content bytes
// (a short page — len < PageSize — marks EOF, as before). shared marks a
// content-addressed slot referenced through the dedup index: dropping it
// derefs the index entry instead of releasing the slot directly.
type poolPage struct {
	slot   int
	len    int
	shared bool
}

// ---------------------------------------------------------------------------
// Shared arenas (the fleet's one cross-shard structure).
// ---------------------------------------------------------------------------

// PagePool is a standalone page-pool arena several FileSystems — each
// owned by an independent deterministic Instance, possibly running on
// its own host thread — can share. Slot lease state is managed with
// atomics and the allocator with fine-grained locking, so concurrent
// shards are race-free; per-attachment quotas keep each shard's cache
// behaviour (and therefore its virtual clock) independent of its
// neighbours.
type PagePool struct {
	pp *pagePool
}

// NewPagePool creates a shared arena of the given slot count
// (PageSize bytes each); slots <= 0 selects the private-pool default.
func NewPagePool(slots int) *PagePool {
	return &PagePool{pp: newPagePool(slots)}
}

// Slots returns the arena capacity in slots.
func (p *PagePool) Slots() int { return p.pp.slots }

// PinnedSlots returns the number of slots with outstanding leases.
func (p *PagePool) PinnedSlots() int { return int(p.pp.pinned.Load()) }

// FreeSlots returns the free-stack depth (0 until first use).
func (p *PagePool) FreeSlots() int {
	if p.pp.state == nil {
		return 0
	}
	return p.pp.freeCount()
}

// DedupStats reports the content-addressed sharing tier: distinct shared
// slots resident, outstanding references to them, and index hits since
// boot. All atomic — readable from the host while shards run. The dedup
// factor of a resident fleet is refs/entries.
func (p *PagePool) DedupStats() (entries, refs, hits int64) {
	return p.pp.dedupEntries.Load(), p.pp.dedupRefsN.Load(), p.pp.dedupHitsN.Load()
}

// SetSharedBudget bounds the physical slots the dedup tier may hold
// (slots <= 0: the whole arena, the default). Past the budget, new
// immutable pages are cached privately by the faulting tenant instead —
// bytes and clocks are unaffected, only physical placement.
func (p *PagePool) SetSharedBudget(slots int) {
	pp := p.pp
	pp.mu.Lock()
	defer pp.mu.Unlock()
	pp.ensureDedupLocked()
	if slots <= 0 || slots > pp.slots {
		slots = pp.slots
	}
	pp.quota[pp.dedupAtt] = slots
}

// SetPagePool attaches this FileSystem's page cache to a shared arena
// with a per-cache slot quota (quotaSlots <= 0 means the whole arena —
// only sensible for a single attachment). It must be called at setup
// time, before any page is cached; attached state does not migrate.
func (f *FileSystem) SetPagePool(p *PagePool, quotaSlots int) {
	f.flushAllDirtyNow()
	f.pc.evictAll()
	f.pc.pool = p.pp
	f.pc.att = p.pp.attach(quotaSlots)
}

// PagePoolChunks exposes the page-cache arena for sharing with processes
// (the kernel wraps it in a chunked SharedArrayBuffer view): the arena's
// size in bytes, and chunk i's ChunkBytes-sized region, nil until the
// slot allocator first reaches it.
func (f *FileSystem) PagePoolChunks() (size int, chunk func(i int) []byte) {
	pp := f.pc.pool
	pp.ensure()
	return pp.slots * PageSize, pp.chunk
}

// UnleasePage returns one page lease; false if the slot held none.
// Write-staged slots (AllocWriteSlots) additionally detach from staging
// ownership when the guest lease returns: the slot frees immediately, or
// freezes until the last adopter (a dirty extent, a pipe segment) unpins
// it — the same discipline as a dropped-but-leased cache page.
func (f *FileSystem) UnleasePage(slot int) bool {
	if f.pc.wstaged[slot] {
		delete(f.pc.wstaged, slot)
		if !f.pc.pool.unpin(slot) {
			return false
		}
		f.pc.returnedPages.Add(1)
		f.pc.pool.release(slot)
		return true
	}
	if !f.pc.pool.unpin(slot) {
		return false
	}
	f.pc.returnedPages.Add(1)
	return true
}

// ---------------------------------------------------------------------------
// Image store: immutable snapshot pages shared copy-on-write.
// ---------------------------------------------------------------------------

// ImageStore keeps immutable snapshot-image pages in the pool arena under
// its own attachment. Each stored page carries one *base* pin held by the
// store, so a frozen image never recycles; every process cloned from the
// image takes one additional pin per still-shared page (the COW
// refcount) and returns it on first write (the page materializes
// privately in the clone's heap) or at exit. Quota accounting works like
// any other attachment: image pages are charged (logically) to the
// store, and the clones sharing them are charged nothing — the whole
// point.
//
// Image pages go through the content-addressed dedup tier: identical
// pages within an image (a zeroed heap is mostly one page), across
// images, and even between images and the page cache (a sealed image's
// page matching a full page of some immutable file) collapse to one
// arena slot. A deduped slot then carries one base pin PER image page
// referencing it, so pin-ledger audits must count expected occurrences
// per slot, not assume one.
type ImageStore struct {
	pp  *pagePool
	att int
}

// ImageStore creates a snapshot-page attachment on a shared arena.
// quotaSlots <= 0 means the whole arena.
func (p *PagePool) ImageStore(quotaSlots int) *ImageStore {
	return &ImageStore{pp: p.pp, att: p.pp.attach(quotaSlots)}
}

// ImageStore creates a snapshot-page attachment on this FileSystem's own
// pool (private or shared) — how a single Instance with snapshots enabled
// stores images without constructing a standalone PagePool.
func (f *FileSystem) ImageStore(quotaSlots int) *ImageStore {
	return &ImageStore{pp: f.pc.pool, att: f.pc.pool.attach(quotaSlots)}
}

// Put stores one page of image data (len(data) <= PageSize), zero-padded
// to a full page, and pins the resulting slot once (the store's base
// pin). Pages route through the dedup index keyed by the padded page's
// hash — identical content resolves to the already-resident slot, which
// simply gains a reference and another base pin. ok is false at quota or
// arena exhaustion (the caller falls back to private host copies).
func (s *ImageStore) Put(data []byte) (int, bool) {
	if len(data) > PageSize {
		panic("fs: ImageStore.Put: page overflow")
	}
	var page [PageSize]byte
	copy(page[:], data)
	h := sha256.Sum256(page[:])
	if slot, st := s.pp.dedupLookup(s.att, h); st == dedupHit {
		s.pp.pin(slot)
		return slot, true
	} else if st == dedupNoQuota {
		return 0, false
	}
	slot, st := s.pp.dedupAlloc(s.att)
	if st != allocOK {
		// Shared budget, attachment quota, or arena exhausted: capture
		// falls back exactly where the pre-dedup allocator failed.
		return 0, false
	}
	copy(s.pp.page(slot), page[:])
	canon := s.pp.dedupPublish(slot, h)
	s.pp.pin(canon)
	return canon, true
}

// Data returns a stored page's arena bytes (full page; the image tracks
// content lengths). Callers must treat them as immutable.
func (s *ImageStore) Data(slot int) []byte {
	return s.pp.page(slot)
}

// Pin takes one clone reference on an image page.
func (s *ImageStore) Pin(slot int) { s.pp.pin(slot) }

// Unpin returns one clone reference (a COW fault or a clone exiting).
func (s *ImageStore) Unpin(slot int) bool { return s.pp.unpin(slot) }

// PinCount returns a page's outstanding pin count, including the base
// pin — the balance check: a quiesced registry shows exactly 1 per page.
func (s *ImageStore) PinCount(slot int) int { return s.pp.pinCount(slot) }

// Free releases a stored page: the store's base pin returns and the
// image's dedup reference drops. The last reference unpublishes the
// entry and the slot detaches, freezing until any remaining clone
// references (or grant leases) come back.
func (s *ImageStore) Free(slot int) {
	s.pp.unpin(slot)
	s.pp.dedupDeref(s.att, slot)
}

// PageRef references pinned bytes in the page pool: the fs-level
// currency of the zero-copy read path (abi.PageGrant is its wire form).
type PageRef struct {
	Slot int
	Gen  uint64
	Off  int64 // byte offset into the pool arena
	Len  int
}

// RefReader is the optional FileHandle extension the zero-copy read
// path drives: serve [off, off+n) as pinned page references when every
// byte is already resident and the handle is current. ok=false sends the
// caller down the ordinary copy path — same bytes, one copy. Refs are
// pinned on success; callers owe one UnleasePage per ref. max bounds the
// ref count (the caller's grant area size); a refusal never pins.
type RefReader interface {
	PreadRef(off int64, n, max int) ([]PageRef, bool)
}

// The fs granule and the ABI grant granule must be the same constant:
// leases and write grants name slot-relative byte ranges across the
// kernel boundary in these units. Either constant drifting makes one of
// these two uint conversions a negative-constant compile error.
const (
	_ = uint(PageSize - abi.GrantPageSize)
	_ = uint(abi.GrantPageSize - PageSize)
)
