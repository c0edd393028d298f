package fs

// The write half of the zero-copy data plane. The read path (readg)
// grants a process leases on *full* pages; the write path inverts the
// flow: the kernel leases the process *empty* arena slots (wgalloc), the
// process stages payload bytes into them with ordinary stores through
// its own mapping, and submits (slot, offset, length) references
// (writeg) instead of payloads. The fs layer then adopts the referenced
// bytes *in place* as dirty write-back state: the dirty extent aliases
// the arena, coalesces with its neighbours, and is handed to the ordered
// vectored flusher exactly like a copied extent — zero per-byte
// crossings end to end for the warm sequential case.
//
// Ownership. A staged slot carries one pin for the guest lease (taken at
// AllocWriteSlots, returned via UnleasePage) plus one pin per adopter —
// a dirty extent aliasing it, or a pipe segment buffered from it. The
// guest's unlease *releases* staging ownership: the slot frees when no
// adopter pins remain, or freezes (bytes intact) until the last adopter
// unpins — identical to a leased cache page outliving unlink/truncate.
// A well-behaved staging allocator only ever appends within a slot, so
// already-submitted (adopted) regions are never rewritten; a misbehaving
// guest can only corrupt bytes it could have written anyway.

// SlotRef names staged payload bytes in the arena: Len bytes starting at
// byte Off of pool slot Slot (abi.WriteRef is its wire form).
type SlotRef struct {
	Slot int
	Off  int
	Len  int
}

// SlotWriter is the optional FileHandle extension the zero-copy write
// path drives: adopt staged slot bytes at file offset off as buffered
// dirty state without copying. ok=false refuses (stale generation,
// write-back off, write-through backend) and the caller falls back to
// the copy path — same bytes, one copy, byte-identical result. On
// success the handle keeps the referenced bytes alive (pinning the slots
// it aliases) until the flusher lands them; the caller still owes the
// guest-lease unlease as usual.
type SlotWriter interface {
	PwriteSlots(off int64, refs []SlotRef) (int, bool)
}

// AllocWriteSlots leases up to n empty arena slots for write staging:
// each returned slot is pinned (the guest lease), charged to this
// cache's quota, and registered as write-staged. Under arena pressure
// cold cached files are evicted LRU-first; fewer than n (possibly zero)
// slots are returned when every quota slot is leased out — the caller
// degrades to the copy path.
func (f *FileSystem) AllocWriteSlots(n int) []int {
	c := f.pc
	var slots []int
	for len(slots) < n {
		slot, ok := c.pool.alloc(c.att)
		if !ok {
			if !c.evictOneLRU() {
				break
			}
			continue
		}
		c.pool.pin(slot)
		c.wstaged[slot] = true
		c.grantedPages.Add(1)
		slots = append(slots, slot)
	}
	return slots
}

// SlotBytes returns the live arena bytes a SlotRef names, cap-clamped so
// no append through the slice can ever touch a neighbouring slot.
func (f *FileSystem) SlotBytes(r SlotRef) []byte {
	return f.pc.pool.page(r.Slot)[r.Off : r.Off+r.Len : r.Off+r.Len]
}

// ValidSlotRef bounds-checks a wire-supplied reference against the
// arena: a hostile (slot, off, len) must fail the call, not panic the
// kernel.
func (f *FileSystem) ValidSlotRef(r SlotRef) bool {
	return r.Slot >= 0 && r.Slot < f.pc.pool.slots &&
		r.Off >= 0 && r.Len > 0 && r.Off+r.Len <= PageSize &&
		f.pc.pool.hasChunk(r.Slot)
}

// PinPage takes one kernel-internal pin on a slot — an adopter (pipe
// segment, split grant piece) keeping staged or granted bytes alive
// independently of the guest's lease. Not lease-accounted.
func (f *FileSystem) PinPage(slot int) { f.pc.pool.pin(slot) }

// UnpinPage returns a pin taken with PinPage (or by an adopter).
func (f *FileSystem) UnpinPage(slot int) { f.pc.pool.unpin(slot) }

// LeasePage takes one pin accounted as a granted lease. The batched
// read path uses it when one granted ref is split across two reply
// frames: the extra frame's lease is taken here so pages granted and
// pages returned stay balanced.
func (f *FileSystem) LeasePage(slot int) {
	f.pc.pool.pin(slot)
	f.pc.grantedPages.Add(1)
}

// WriteStagedSlots returns the number of slots currently leased out for
// write staging (diagnostics/tests).
func (f *FileSystem) WriteStagedSlots() int { return len(f.pc.wstaged) }
