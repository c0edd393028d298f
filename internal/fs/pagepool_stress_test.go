package fs

import (
	"crypto/sha256"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// Concurrent stress/property test for the shared page-pool arena: K
// goroutines — each standing in for one fleet shard — hammer their own
// attachment with randomized alloc/write/pin/unpin/release storms while
// the invariants of the lease discipline are checked in-line:
//
//   - a freshly allocated slot is never leased or frozen (no recycling
//     of a slot somebody still reads);
//   - a slot's bytes never change while its owner holds it or holds a
//     lease on it — including after release froze it (frozen bytes stay
//     intact until the last unpin);
//   - at quiesce every lease has been returned, every slot is back on
//     the free stack, and every attachment's usage is zero.
//
// Each goroutine writes only slots it allocated itself, so a stamp
// mismatch can only mean the pool handed the same slot to two owners or
// recycled a frozen slot. The race detector referees the memory model:
// the final unpin's CAS plus the free-stack mutex must order every
// reader's loads before the next owner's stores.

const stressStamp = 128 // bytes stamped/verified per slot (covers the rewrite window)

type stressHeld struct {
	slot int
	pins int
}

func TestPagePoolConcurrentStress(t *testing.T) {
	const (
		slots = 128
		K     = 8
		iters = 4000
	)
	pp := newPagePool(slots)
	pp.ensure()

	// Uneven quotas: some shards can overflow the free stack even under
	// quota (sum of quotas > slots), exercising both failure paths.
	atts := make([]int, K)
	for g := range atts {
		atts[g] = pp.attach(slots/K + g)
	}

	var wg sync.WaitGroup
	for g := 0; g < K; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)*7919 + 1)) // fixed per-shard seed
			att := atts[g]
			stamp := byte(g + 1)
			var owned []stressHeld

			check := func(slot int, what string) {
				page := pp.page(slot)
				for i := 0; i < stressStamp; i++ {
					if page[i] != stamp {
						t.Errorf("shard %d: slot %d byte %d = %d, want %d (%s)",
							g, slot, i, page[i], stamp, what)
						return
					}
				}
			}
			releaseAt := func(i int) {
				h := owned[i]
				check(h.slot, "owned at release")
				pp.release(h.slot)
				if h.pins > 0 {
					// Detached while leased: the slot froze. Its bytes
					// must survive every outstanding lease.
					if !pp.isFrozen(h.slot) {
						t.Errorf("shard %d: slot %d released with %d pins but not frozen", g, h.slot, h.pins)
					}
					for ; h.pins > 0; h.pins-- {
						check(h.slot, "frozen under lease")
						pp.unpin(h.slot)
					}
				}
				owned[i] = owned[len(owned)-1]
				owned = owned[:len(owned)-1]
			}

			for iter := 0; iter < iters; iter++ {
				switch op := rng.Intn(100); {
				case op < 40: // store: alloc a slot and write our stamp
					slot, ok := pp.alloc(att)
					if !ok {
						// Quota or arena overflow — the evictAll path:
						// drop something and move on.
						if len(owned) > 0 {
							releaseAt(rng.Intn(len(owned)))
						}
						continue
					}
					if n := pp.pinCount(slot); n != 0 || pp.isFrozen(slot) {
						t.Errorf("shard %d: alloc returned slot %d with pins=%d frozen=%v",
							g, slot, n, pp.isFrozen(slot))
					}
					page := pp.page(slot)
					for i := 0; i < stressStamp; i++ {
						page[i] = stamp
					}
					owned = append(owned, stressHeld{slot: slot})
				case op < 65 && len(owned) > 0: // grant a lease
					h := &owned[rng.Intn(len(owned))]
					pp.pin(h.slot)
					h.pins++
					check(h.slot, "just pinned")
				case op < 80 && len(owned) > 0: // return a lease
					h := &owned[rng.Intn(len(owned))]
					if h.pins > 0 {
						check(h.slot, "before unpin")
						pp.unpin(h.slot)
						h.pins--
					}
				default: // detach (evict/invalidate)
					if len(owned) > 0 {
						releaseAt(rng.Intn(len(owned)))
					}
				}
				if iter%256 == 0 {
					runtime.Gosched() // shuffle interleavings
				}
			}
			for len(owned) > 0 {
				releaseAt(len(owned) - 1)
			}
		}(g)
	}
	wg.Wait()

	// Quiesce invariants: everything returned, nothing leaked.
	if n := pp.pinned.Load(); n != 0 {
		t.Errorf("pinned slots at quiesce: %d, want 0", n)
	}
	if n := pp.freeCount(); n != slots {
		t.Errorf("free stack holds %d slots at quiesce, want %d", n, slots)
	}
	for g, att := range atts {
		if n := pp.usedBy(att); n != 0 {
			t.Errorf("shard %d still charged %d slots at quiesce", g, n)
		}
	}
	for s := 0; s < slots; s++ {
		if pp.pinCount(s) != 0 || pp.isFrozen(s) {
			t.Errorf("slot %d at quiesce: pins=%d frozen=%v", s, pp.pinCount(s), pp.isFrozen(s))
		}
	}
}

// TestPagePoolQuotaIndependence pins the determinism property the fleet
// rests on: one attachment's allocation success depends only on its own
// quota, never on how many slots its neighbours hold.
func TestPagePoolQuotaIndependence(t *testing.T) {
	pp := newPagePool(16)
	a := pp.attach(4)
	b := pp.attach(4)

	// Shard b hoards its whole quota.
	var bSlots []int
	for i := 0; i < 4; i++ {
		slot, ok := pp.alloc(b)
		if !ok {
			t.Fatalf("b alloc %d failed under quota", i)
		}
		bSlots = append(bSlots, slot)
	}
	if _, ok := pp.alloc(b); ok {
		t.Fatal("b alloc succeeded past its quota")
	}
	// Shard a still gets its full quota regardless.
	for i := 0; i < 4; i++ {
		if _, ok := pp.alloc(a); !ok {
			t.Fatalf("a alloc %d failed while under quota (neighbour interference)", i)
		}
	}
	if _, ok := pp.alloc(a); ok {
		t.Fatal("a alloc succeeded past its quota")
	}
	// A frozen slot stays charged to its owner: release-under-lease must
	// not free quota headroom early (that would let the owner rewrite
	// bytes a leaseholder still reads — via a new slot's identity).
	pp.pin(bSlots[0])
	pp.release(bSlots[0])
	if _, ok := pp.alloc(b); ok {
		t.Fatal("b alloc succeeded while a frozen slot still holds its charge")
	}
	pp.unpin(bSlots[0])
	if _, ok := pp.alloc(b); !ok {
		t.Fatal("b alloc failed after the frozen slot was returned")
	}
}

// TestPagePoolDedupStress storms the content-addressed tier: K shards
// share a small set of content patterns, so lookups constantly hit
// entries other shards published, publishes race on the same hash, and
// derefs interleave with outstanding grant leases. In-line invariants:
//
//   - a lookup hit or publish always lands on a slot carrying exactly
//     the pattern's bytes (the index never aliases two contents);
//   - a shard's reference (or any lease it still holds after deref)
//     keeps the bytes stable — a shared slot is freed exactly once,
//     only after the LAST reference and the LAST lease are gone;
//   - at quiesce the index is empty, every shared charge is returned,
//     and the arena is fully free.
//
// The race detector referees: publish/lookup hand slots between shards
// under the pool mutex, so a filler's stores must happen-before every
// reader's loads.
func TestPagePoolDedupStress(t *testing.T) {
	const (
		slots    = 96
		K        = 8
		iters    = 3000
		patterns = 24
	)
	pp := newPagePool(slots)
	pp.ensure()

	// Hash per pattern; pattern content = stressStamp bytes of its tag.
	var hashes [patterns][32]byte
	for p := 0; p < patterns; p++ {
		body := make([]byte, stressStamp)
		for i := range body {
			body[i] = byte(p + 1)
		}
		hashes[p] = sha256.Sum256(body)
	}

	// Uneven quotas; shared references charge quota logically, so small
	// shards exercise dedupNoQuota while big ones keep entries alive.
	atts := make([]int, K)
	for g := range atts {
		atts[g] = pp.attach(slots/K + 2*g)
	}

	type dedupHeld struct {
		slot, pat, pins int
	}
	var wg sync.WaitGroup
	for g := 0; g < K; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)*104729 + 3))
			att := atts[g]
			var held []dedupHeld

			verify := func(slot, pat int, what string) {
				page := pp.page(slot)
				for i := 0; i < stressStamp; i++ {
					if page[i] != byte(pat+1) {
						t.Errorf("shard %d: slot %d byte %d = %d, want pattern %d (%s)",
							g, slot, i, page[i], pat+1, what)
						return
					}
				}
			}
			dropAt := func(i int) {
				h := held[i]
				verify(h.slot, h.pat, "held at deref")
				pp.dedupDeref(att, h.slot)
				// Outstanding leases outlive our reference: whether the
				// slot stayed published (other shards) or froze (we were
				// last), its bytes survive until the final unpin.
				for ; h.pins > 0; h.pins-- {
					verify(h.slot, h.pat, "leased past deref")
					pp.unpin(h.slot)
				}
				held[i] = held[len(held)-1]
				held = held[:len(held)-1]
			}

			for iter := 0; iter < iters; iter++ {
				switch op := rng.Intn(100); {
				case op < 45: // fault a pattern: lookup, else fill+publish
					pat := rng.Intn(patterns)
					if slot, st := pp.dedupLookup(att, hashes[pat]); st == dedupHit {
						verify(slot, pat, "lookup hit")
						held = append(held, dedupHeld{slot: slot, pat: pat})
						continue
					} else if st == dedupNoQuota {
						if len(held) > 0 {
							dropAt(rng.Intn(len(held)))
						}
						continue
					}
					slot, st := pp.dedupAlloc(att)
					if st != allocOK {
						if len(held) > 0 {
							dropAt(rng.Intn(len(held)))
						}
						continue
					}
					page := pp.page(slot)
					for i := 0; i < stressStamp; i++ {
						page[i] = byte(pat + 1)
					}
					canon := pp.dedupPublish(slot, hashes[pat])
					verify(canon, pat, "after publish") // loser adopts the winner's copy
					held = append(held, dedupHeld{slot: canon, pat: pat})
				case op < 65 && len(held) > 0: // grant a lease on a shared slot
					h := &held[rng.Intn(len(held))]
					pp.pin(h.slot)
					h.pins++
					verify(h.slot, h.pat, "just pinned")
				case op < 80 && len(held) > 0: // return a lease
					h := &held[rng.Intn(len(held))]
					if h.pins > 0 {
						verify(h.slot, h.pat, "before unpin")
						pp.unpin(h.slot)
						h.pins--
					}
				default: // drop our reference
					if len(held) > 0 {
						dropAt(rng.Intn(len(held)))
					}
				}
				if iter%256 == 0 {
					runtime.Gosched()
				}
			}
			for len(held) > 0 {
				dropAt(len(held) - 1)
			}
		}(g)
	}
	wg.Wait()

	// Quiesce: the index is empty, every charge returned, arena free.
	if e, r, _ := pp.dedupStats(); e != 0 || r != 0 {
		t.Errorf("dedup index at quiesce: entries=%d refs=%d, want 0/0", e, r)
	}
	if n := pp.pinned.Load(); n != 0 {
		t.Errorf("pinned slots at quiesce: %d, want 0", n)
	}
	if n := pp.freeCount(); n != slots {
		t.Errorf("free stack holds %d slots at quiesce, want %d", n, slots)
	}
	for g, att := range atts {
		if n := pp.usedBy(att); n != 0 {
			t.Errorf("shard %d still charged %d private slots at quiesce", g, n)
		}
		if n := pp.sharedBy(att); n != 0 {
			t.Errorf("shard %d still charged %d shared refs at quiesce", g, n)
		}
	}
	if pp.dedupAtt >= 0 {
		if n := pp.usedBy(pp.dedupAtt); n != 0 {
			t.Errorf("dedup attachment still holds %d slots at quiesce", n)
		}
	}
	for s := 0; s < slots; s++ {
		if pp.pinCount(s) != 0 || pp.isFrozen(s) {
			t.Errorf("slot %d at quiesce: pins=%d frozen=%v", s, pp.pinCount(s), pp.isFrozen(s))
		}
	}
}
