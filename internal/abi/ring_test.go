package abi

import (
	"encoding/binary"
	"testing"
)

func TestIovecRoundTrip(t *testing.T) {
	iovs := []Iovec{{Ptr: 64, Len: 4096}, {Ptr: 4160, Len: 65536}, {Ptr: 1 << 40, Len: 1}}
	buf := make([]byte, len(iovs)*IovecSize)
	if n := PackIovecs(buf, iovs); n != len(buf) {
		t.Fatalf("packed %d bytes, want %d", n, len(buf))
	}
	got := UnpackIovecs(buf, len(iovs))
	if len(got) != len(iovs) {
		t.Fatalf("unpacked %d iovecs, want %d", len(got), len(iovs))
	}
	for i := range iovs {
		if got[i] != iovs[i] {
			t.Fatalf("iovec %d: got %+v want %+v", i, got[i], iovs[i])
		}
	}
}

func TestRingCallRoundTrip(t *testing.T) {
	r := NewRing(make([]byte, 256))
	r.Reset()
	if _, _, _, ok := r.PopCall(); ok {
		t.Fatal("pop from empty ring succeeded")
	}
	if !r.PushCall(7, SYS_read, []int64{3, 64, 4096}) {
		t.Fatal("push failed on empty ring")
	}
	if !r.PushCall(8, SYS_getpid, nil) {
		t.Fatal("second push failed")
	}
	seq, trap, args, ok := r.PopCall()
	if !ok || seq != 7 || trap != SYS_read || len(args) != 3 || args[2] != 4096 {
		t.Fatalf("pop 1: seq=%d trap=%d args=%v ok=%v", seq, trap, args, ok)
	}
	seq, trap, args, ok = r.PopCall()
	if !ok || seq != 8 || trap != SYS_getpid || len(args) != 0 {
		t.Fatalf("pop 2: seq=%d trap=%d args=%v ok=%v", seq, trap, args, ok)
	}
	if r.Used() != 0 {
		t.Fatalf("ring not drained: %d bytes used", r.Used())
	}
}

func TestRingWrapAround(t *testing.T) {
	// A small ring forces the cursors to wrap mid-frame many times.
	r := NewRing(make([]byte, MinRingSize))
	r.Reset()
	seq := uint32(0)
	for i := 0; i < 100; i++ {
		for r.PushCall(seq, SYS_write, []int64{int64(seq), 2, 3}) {
			seq++
		}
		for {
			got, trap, args, ok := r.PopCall()
			if !ok {
				break
			}
			if trap != SYS_write || args[0] != int64(got) {
				t.Fatalf("iter %d: frame corrupted: seq=%d trap=%d args=%v", i, got, trap, args)
			}
		}
		if r.Used() != 0 {
			t.Fatalf("iter %d: residue %d bytes", i, r.Used())
		}
	}
	if seq < 100 {
		t.Fatalf("only %d frames pushed through a wrapping ring", seq)
	}
}

func TestRingPopCallRejectsMalformedFrames(t *testing.T) {
	// The ring lives in guest-writable shared memory: a frame whose
	// nargs disagrees with its size must be dropped, not drive a huge
	// allocation or an out-of-frame read.
	r := NewRing(make([]byte, 256))
	r.Reset()
	r.PushCall(1, SYS_read, []int64{1, 2, 3})
	// Corrupt nargs (offset: header 8 + frame base, nargs at +12).
	binary.LittleEndian.PutUint32(r.B[RingHdrSize+12:], 0xFFFF)
	if _, _, _, ok := r.PopCall(); ok {
		t.Fatal("malformed frame popped successfully")
	}
	if r.Used() != 0 {
		t.Fatalf("ring not reset after malformed frame: %d used", r.Used())
	}
	// A healthy ring keeps working after the reset.
	if !r.PushCall(2, SYS_getpid, nil) {
		t.Fatal("push after reset failed")
	}
	if seq, trap, _, ok := r.PopCall(); !ok || seq != 2 || trap != SYS_getpid {
		t.Fatalf("post-reset pop: seq=%d trap=%d ok=%v", seq, trap, ok)
	}
}

func TestRingReplyRoundTripAndFull(t *testing.T) {
	r := NewRing(make([]byte, MinRingSize))
	r.Reset()
	pushed := 0
	for r.PushReply(uint32(pushed), int64(1000+pushed), EAGAIN) {
		pushed++
	}
	if pushed == 0 {
		t.Fatal("no replies fit")
	}
	for i := 0; i < pushed; i++ {
		seq, ret, errno, ok := r.PopReply()
		if !ok || seq != uint32(i) || ret != int64(1000+i) || errno != EAGAIN {
			t.Fatalf("reply %d: seq=%d ret=%d errno=%v ok=%v", i, seq, ret, errno, ok)
		}
	}
	if _, _, _, ok := r.PopReply(); ok {
		t.Fatal("pop from drained reply ring succeeded")
	}
	// Negative return values survive the u64 crossing.
	r.PushReply(9, -1, EPIPE)
	_, ret, errno, _ := r.PopReply()
	if ret != -1 || errno != EPIPE {
		t.Fatalf("ret=%d errno=%v", ret, errno)
	}
}

func TestRingRejectsCorruptCursors(t *testing.T) {
	// head and tail live in guest memory: a cursor at or past the data
	// area must reset the ring and fail the pop, not index past it.
	for _, c := range []struct{ head, tail uint32 }{
		{0x30303030, 0x30303030}, {0, 128}, {128, 0}, {5, 1 << 31},
	} {
		r := NewRing(make([]byte, RingHdrSize+128))
		binary.LittleEndian.PutUint32(r.B[0:], c.head)
		binary.LittleEndian.PutUint32(r.B[4:], c.tail)
		if u := r.Used(); u != 0 {
			t.Fatalf("cursors %+v: Used %d, want 0", c, u)
		}
		if _, _, _, ok := r.PopCall(); ok {
			t.Fatalf("cursors %+v: PopCall succeeded", c)
		}
		if r.head() != 0 || r.tail() != 0 {
			t.Fatalf("cursors %+v: ring not reset", c)
		}
		binary.LittleEndian.PutUint32(r.B[4:], c.tail|128)
		if _, _, _, ok := r.PopReply(); ok {
			t.Fatalf("cursors %+v: PopReply succeeded", c)
		}
		if !r.PushReply(1, 2, OK) || !r.PushCall(3, SYS_getpid, nil) {
			t.Fatalf("cursors %+v: ring unusable after reset", c)
		}
	}
}

func TestRingPopAllocations(t *testing.T) {
	r := NewRing(make([]byte, 512))
	r.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		r.PushCall(1, SYS_getpid, nil)
		r.PopCall()
		r.PushReply(1, 7, OK)
		r.PopReply()
	})
	if allocs != 0 {
		t.Fatalf("argument-free call and reply round trip allocated %.0f times, want 0", allocs)
	}
}

// FuzzRingPop drains arbitrary ring regions (header and data, both
// guest-controlled) through PopCall and PopReply: neither may panic, and
// Used always lies inside the data area.
func FuzzRingPop(f *testing.F) {
	r := NewRing(make([]byte, 136))
	r.Reset()
	r.PushCall(1, SYS_read, []int64{3, 64, 4096})
	r.PushCall(2, SYS_getpid, nil)
	f.Add(append([]byte(nil), r.B...))
	f.Add(make([]byte, RingHdrSize))
	f.Fuzz(func(t *testing.T, region []byte) {
		if len(region) < RingHdrSize || len(region) > 256 {
			return
		}
		check := func(r Ring) {
			if u, n := r.Used(), r.dataLen(); u < 0 || (n > 0 && u >= n) || (n == 0 && u != 0) {
				t.Fatalf("Used %d outside [0, %d)", u, n)
			}
		}
		calls := NewRing(append([]byte(nil), region...))
		for i := 0; i < len(region); i++ {
			check(calls)
			if _, _, args, ok := calls.PopCall(); !ok {
				break
			} else if len(args) > maxFrameArgs {
				t.Fatalf("popped %d args", len(args))
			}
		}
		check(calls)
		replies := NewRing(append([]byte(nil), region...))
		for i := 0; i < len(region); i++ {
			check(replies)
			if _, _, _, ok := replies.PopReply(); !ok {
				break
			}
		}
		check(replies)
	})
}
