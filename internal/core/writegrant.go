package core

import (
	"repro/internal/abi"
	"repro/internal/fs"
)

// Kernel side of the zero-copy grant calls — readg, unlease, wgalloc and
// writeg, which exist only on the heap-backed transports — and the
// batched grant-read dispatch.
//
// Read direction: readg answers a warm page-cache hit with pinned page
// leases instead of payload bytes; unlease returns them.
//
// Write direction: wgalloc leases the calling process *empty* page-pool
// slots; the process stages payload bytes into them through its own
// arena mapping and submits (slot, off, len) references with writeg.
// The kernel never touches the payload: an fs-backed descriptor adopts
// the referenced bytes in place as dirty write-back extents, and a pipe
// buffers them as slot-backed segments the reader can drain by grant.
// Everything else — write-back off, scalar transport, DisableZeroCopy*,
// a refusing handle — falls back to one kernel copy out of the arena,
// byte-identical with the classic write path.
//
// Batched reads: a drained doorbell carrying a run of readg frames
// against one descriptor becomes a single vectored cache pass whose
// grant list is split back across the frames — 64 sequential reads cost
// one ReadRef and one wake instead of 64.

// Caps on write-grant staging: slots leased per wgalloc call, and total
// staging slots a task may hold at once (a runaway staging allocator
// must exhaust its own quota, not the shared arena). The per-call cap
// equals the per-task cap so a bulk writer can restore a full staging
// window with the one wgalloc frame that rides its writeg doorbell.
const (
	maxWgallocSlots  = 64
	maxStagedPerTask = 64
)

// writeGrantOK reports whether the task negotiated the mappings the
// zero-copy write path rides on.
func (k *Kernel) writeGrantOK(t *Task) bool {
	return t.pool && t.ring != nil && !k.DisableZeroCopy && !k.DisableZeroCopyWrite
}

// doWgalloc services the write-grant allocation doorbell: lease up to n
// empty staging slots to the task and describe them in the grant-reply
// area at grantPtr. Fewer than n (possibly zero) slots is a clean
// answer — the guest degrades to the copy path for this write, not an
// error. ENOSYS tells the guest to stop asking for good. Args: n,
// grantPtr.
func (k *Kernel) doWgalloc(t *Task, c *heapCall) {
	n, grantPtr := int(c.num()), c.num()
	if !k.writeGrantOK(t) {
		c.done(-1, abi.ENOSYS)
		return
	}
	if n <= 0 || n > maxWgallocSlots || grantPtr < 0 {
		c.done(-1, abi.EINVAL)
		return
	}
	c.check(grantPtr, int64(abi.GrantAreaSize(n)))
	if failed(c) {
		return
	}
	if room := maxStagedPerTask - len(t.wstaged); n > room {
		n = room
	}
	var slots []int
	if n > 0 {
		slots = k.FS.AllocWriteSlots(n)
	}
	grants := make([]abi.PageGrant, len(slots))
	for i, slot := range slots {
		if t.leases == nil {
			t.leases = map[int]int{}
		}
		if t.wstaged == nil {
			t.wstaged = map[int]bool{}
		}
		t.leases[slot]++
		t.wstaged[slot] = true
		k.LeaseGrants.Add(1)
		grants[i] = abi.PageGrant{
			Slot: uint32(slot), Len: fs.PageSize,
			Off: int64(slot) * fs.PageSize,
		}
	}
	buf := make([]byte, abi.GrantAreaSize(len(grants)))
	abi.PackGrantReply(buf, abi.GrantMapped, grants)
	t.heapWrite(grantPtr, buf)
	c.done(int64(len(grants)), abi.OK)
}

// doWriteg services a write-by-reference: refs name staged payload
// bytes in slots the task holds write-staging leases on. The referenced
// bytes are adopted without copying when the descriptor supports it;
// otherwise one copy out of the arena re-creates the classic write. Only
// the 12-byte references cross the heap. Args: fd, refPtr, refCnt.
func (k *Kernel) doWriteg(t *Task, c *heapCall) {
	fd := int(c.num())
	_, raw := c.array(abi.WriteRefSize, 1024)
	if failed(c) {
		return
	}
	if len(raw) == 0 {
		c.done(-1, abi.EINVAL)
		return
	}
	wrefs := abi.UnpackWriteRefs(raw, len(raw)/abi.WriteRefSize)
	refs := make([]fs.SlotRef, len(wrefs))
	for i, r := range wrefs {
		refs[i] = fs.SlotRef{Slot: int(r.Slot), Off: int(r.Off), Len: int(r.Len)}
	}
	if !k.writeGrantOK(t) {
		c.done(-1, abi.ENOSYS)
		return
	}
	d, err := t.lookFd(fd)
	if err != abi.OK {
		c.done(-1, err)
		return
	}
	var total int64
	for _, r := range refs {
		if !k.FS.ValidSlotRef(r) || !t.wstaged[r.Slot] {
			c.done(-1, abi.EINVAL)
			return
		}
		total += int64(r.Len)
	}
	if total == 0 {
		c.done(0, abi.OK)
		return
	}

	// The copy fallback: assemble the payload out of the arena (one
	// kernel copy, charged like a heap crossing) and run the classic
	// owned-buffer write — byte-identical with the adoption paths.
	fallback := func() {
		buf := make([]byte, 0, total)
		for _, r := range refs {
			buf = append(buf, k.FS.SlotBytes(r)...)
		}
		k.Sys.Sim.Charge(int64(float64(total) * k.CPU.SyncByteNs))
		k.WriteCopiedBytes.Add(total)
		writeMoved(d, buf, func(n int, werr abi.Errno) {
			c.done(int64(n), werr)
		})
	}

	if pe, ok := d.file.(*pipeEnd); ok {
		// Pipe adoption: each reference becomes a slot-backed segment
		// holding one adopter pin, with lease/release closures over the
		// pool so later splits and read grants stay accounted.
		segs := make([]pipeSeg, len(refs))
		for i, r := range refs {
			slot := r.Slot
			k.FS.PinPage(slot)
			segs[i] = pipeSeg{
				data: k.FS.SlotBytes(r),
				slot: slot,
				off:  int64(slot)*fs.PageSize + int64(r.Off),
				owner: &segOwner{
					pieces:  1,
					lease:   func() { k.FS.LeasePage(slot) },
					release: func() { k.FS.UnpinPage(slot) },
				},
			}
		}
		k.WriteGrantedBytes.Add(total)
		done := k.sigPipe(t, d, c.done)
		pe.WriteSlotSegs(segs, func(n int, werr abi.Errno) { done(int64(n), werr) })
		return
	}
	if f, ok := d.file.(*fsFile); ok {
		f.WriteSlots(d, refs, func(n int, werr abi.Errno) {
			if werr == abi.OK {
				k.WriteGrantedBytes.Add(int64(n))
			}
			c.done(int64(n), werr)
		}, fallback)
		return
	}
	fallback()
}

// readgArgs is one decoded readg frame. Args: fd, bufPtr, bufLen (the
// caller's staging buffer — the copy fallback's cap), grantPtr,
// maxGrants, wantN (the full request). wantN may far exceed bufLen:
// grants are not bounded by the caller's staging region, so a warm
// multi-megabyte read is one crossing where the copy path must loop —
// the structural win of the mapping. A cold oversized read degrades to a
// short (bufLen) result, which POSIX read permits.
type readgArgs struct {
	fd        int
	buf       dst
	grantPtr  int64
	maxGrants int
	want      int
}

func decodeReadg(c *heapCall) readgArgs {
	a := readgArgs{fd: int(c.num()), buf: c.buf(), grantPtr: c.num()}
	a.maxGrants, a.want = int(c.num()), int(c.num())
	if a.want <= 0 {
		a.want = int(a.buf.len)
	}
	if a.want < 0 || a.maxGrants < 0 || a.maxGrants > 4096 {
		c.fail(abi.EINVAL)
	}
	c.check(a.grantPtr, int64(abi.GrantAreaSize(a.maxGrants)))
	return a
}

// doReadg is read-with-grant, the zero-copy read path's single kernel
// entry. A warm page-cache hit on the ring transport answers with pinned
// page leases; everything else — cold pages, pipes, the scalar
// transport, DisableZeroCopy — falls through to the copy path, producing
// byte-identical results with one payload copy.
func (k *Kernel) doReadg(t *Task, c *heapCall) {
	a := decodeReadg(c)
	if failed(c) {
		return
	}
	d, err := t.lookFd(a.fd)
	if err != abi.OK {
		c.done(-1, err)
		return
	}
	resolve := func() {
		if t.pool && t.ring != nil && !k.DisableZeroCopy {
			if rf, ok := d.file.(refReader); ok {
				if refs, ok := rf.ReadRef(d, a.want, a.maxGrants); ok {
					k.LeaseGrants.Add(int64(len(refs)))
					grants := make([]abi.PageGrant, len(refs))
					var granted int64
					for i, r := range refs {
						if t.leases == nil {
							t.leases = map[int]int{}
						}
						t.leases[r.Slot]++
						grants[i] = abi.PageGrant{
							Slot: uint32(r.Slot), Len: uint32(r.Len),
							Off: r.Off, Gen: r.Gen,
						}
						granted += int64(r.Len)
					}
					k.GrantedBytes.Add(granted)
					buf := make([]byte, abi.GrantAreaSize(len(grants)))
					abi.PackGrantReply(buf, abi.GrantMapped, grants)
					t.heapWrite(a.grantPtr, buf)
					c.done(granted, abi.OK)
					return
				}
			}
		}
		readGather(d, int(a.buf.len), func(segs [][]byte, rerr abi.Errno) {
			if rerr != abi.OK {
				c.done(-1, rerr)
				return
			}
			var hdr [abi.GrantHdrSize]byte
			abi.PackGrantReply(hdr[:], abi.GrantCopied, nil)
			t.heapWrite(a.grantPtr, hdr[:])
			var total int64
			for _, s := range segs {
				t.heapWrite(a.buf.ptr+total, s)
				total += int64(len(s))
			}
			k.ReadCopiedBytes.Add(total)
			c.done(total, abi.OK)
		})
	}
	// A readg against an empty pipe parks a grant-capable notify
	// instead of resolving now: ReadRef refuses an empty pipe, and
	// falling straight to readGather would park a copying splice —
	// every byte of a lockstep pipeline (the reader usually blocks
	// first) would then cross by copy. Parking the *resolution* keeps
	// the grant attempt first once data arrives.
	if pe, ok := d.file.(*pipeEnd); ok && pe.reader {
		pe.p.readNotify(resolve)
		return
	}
	resolve()
}

// doUnlease reclaims page leases taken by earlier readg grants. ret
// counts the leases actually returned; unknown slots are ignored (a
// lease can also have been reclaimed by exit). Args: slotPtr, count.
func (k *Kernel) doUnlease(t *Task, c *heapCall) {
	_, raw := c.array(4, 4096)
	if failed(c) {
		return
	}
	var freed int64
	for _, s := range abi.UnpackSlots(raw, len(raw)/4) {
		slot := int(s)
		if t.leases[slot] == 0 {
			continue
		}
		t.leases[slot]--
		if t.leases[slot] == 0 {
			delete(t.leases, slot)
		}
		// A write-staging lease retires on its first return: the fs
		// side releases staging ownership then too, so later writeg
		// references to the slot must already be refused.
		delete(t.wstaged, slot)
		k.FS.UnleasePage(slot)
		k.LeaseReturns.Add(1)
		freed++
	}
	c.done(freed, abi.OK)
}

// dispatchReadgRun answers a run of same-fd readg frames with a single
// vectored cache pass: one ReadRef for the union of the requests, its
// grant list split back across the frames in order. Any precondition
// the single-frame path would have enforced falls back to per-frame
// dispatch, so the batched path can only ever change how many cache
// passes and wakes a run costs — never its bytes.
func (k *Kernel) dispatchReadgRun(t *Task, run []pendingCall, done func(uint32, int64, abi.Errno)) {
	fallback := func() {
		for _, c := range run {
			k.dispatchCall(t, c.trap, t.frameCall(c, done))
		}
	}
	if !(t.pool && t.ring != nil && !k.DisableZeroCopy) {
		fallback()
		return
	}
	calls := make([]*heapCall, len(run))
	frames := make([]readgArgs, len(run))
	var totalWant, maxGrants int
	for i, c := range run {
		calls[i] = t.frameCall(c, done)
		a := decodeReadg(calls[i])
		if calls[i].bad() != abi.OK || a.want <= 0 || a.maxGrants <= 0 {
			fallback()
			return
		}
		frames[i] = a
		totalWant += a.want
		maxGrants += a.maxGrants
	}
	d, err := t.lookFd(frames[0].fd)
	if err != abi.OK {
		fallback()
		return
	}
	// Pipes are excluded: a short grant on a pipe means "no more
	// buffered right now", and only per-frame dispatch can park the
	// remaining frames instead of answering them with a spurious EOF.
	if _, isFS := d.file.(*fsFile); !isFS {
		fallback()
		return
	}
	rf, ok := d.file.(refReader)
	if !ok {
		fallback()
		return
	}
	if maxGrants > 4096 {
		maxGrants = 4096
	}
	refs, ok := rf.ReadRef(d, totalWant, maxGrants)
	if !ok {
		fallback()
		return
	}
	k.BatchedGrantReads.Add(int64(len(run) - 1))

	// Split the union's grant list across the frames in order. A ref
	// straddling a frame boundary is carved in two, the tail piece
	// taking a fresh lease so grants and returns stay balanced. Frames
	// past the granted bytes answer as clean EOF (empty mapped reply);
	// a frame whose grant area fills early answers short, and the
	// stream stays intact because the next frame continues where the
	// short one stopped.
	ri := 0
	for i, a := range frames {
		want := a.want
		var grants []abi.PageGrant
		var granted int64
		for want > 0 && ri < len(refs) && len(grants) < a.maxGrants {
			r := refs[ri]
			take := r.Len
			if take > want {
				take = want
			}
			if t.leases == nil {
				t.leases = map[int]int{}
			}
			t.leases[r.Slot]++
			grants = append(grants, abi.PageGrant{
				Slot: uint32(r.Slot), Len: uint32(take),
				Off: r.Off, Gen: r.Gen,
			})
			granted += int64(take)
			want -= take
			if take == r.Len {
				ri++
			} else {
				// The remainder becomes a second live lease on the
				// same slot, granted to a later frame.
				refs[ri].Off += int64(take)
				refs[ri].Len -= take
				k.FS.LeasePage(r.Slot)
			}
		}
		k.LeaseGrants.Add(int64(len(grants)))
		k.GrantedBytes.Add(granted)
		buf := make([]byte, abi.GrantAreaSize(len(grants)))
		abi.PackGrantReply(buf, abi.GrantMapped, grants)
		t.heapWrite(a.grantPtr, buf)
		calls[i].done(granted, abi.OK)
	}
	// Every frame's area full with refs left over (possible only with
	// degenerate caller-chosen grant areas): return the stranded leases
	// and rewind the descriptor so no byte is granted to nobody.
	for ; ri < len(refs); ri++ {
		r := refs[ri]
		k.FS.UnleasePage(r.Slot)
		d.off -= int64(r.Len)
	}
}
