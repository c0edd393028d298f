package core

import (
	"testing"

	"repro/internal/abi"
	"repro/internal/browser"
	"repro/internal/sched"
)

// Guest-supplied iovecs outside the registered heap must fail the call
// with EFAULT — never panic the kernel.
func TestVectoredRejectsOutOfRangeIovecs(t *testing.T) {
	sim := sched.New()
	sys := browser.NewSystem(sim, browser.Chrome())
	k := NewKernel(sys, nil, nil)
	const ivp = 64 // where each case's iovec array is staged
	task := &Task{k: k, heap: browser.NewSAB(4096), files: map[int]*Desc{}}
	rd, wr := NewPipePair()
	task.files[3] = NewDesc(rd, abi.O_RDONLY, "r")
	task.files[4] = NewDesc(wr, abi.O_WRONLY, "w")

	// dispatch runs one readv/writev frame over iovs and returns its errno.
	dispatch := func(task *Task, trap int, fd int64, iovs []abi.Iovec) abi.Errno {
		if task.heap != nil {
			abi.PackIovecs(task.heap.Bytes()[ivp:], iovs)
		}
		var got abi.Errno = -1
		sim.Post(sys.Main.Sched(), sim.Now(), func() {
			c := &heapCall{t: task, args: []int64{fd, ivp, int64(len(iovs))},
				fin: func(_ int64, err abi.Errno) { got = err }}
			k.dispatchCall(task, trap, c)
		})
		sim.RunUntil(func() bool { return got != -1 })
		return got
	}

	bad := [][]abi.Iovec{
		{{Ptr: 4090, Len: 100}},                  // runs past the heap
		{{Ptr: -8, Len: 16}},                     // negative pointer
		{{Ptr: 0, Len: -1}},                      // negative length
		{{Ptr: 1 << 40, Len: 16}},                // pointer past the heap
		{{Ptr: 16, Len: 1 << 62}},                // length overflows any sum
		{{Ptr: (1 << 63) - 9, Len: 16}},          // Ptr+Len wraps negative
		{{Ptr: 0, Len: 16}, {Ptr: 4096, Len: 1}}, // second iovec bad
	}
	for i, iovs := range bad {
		if got := dispatch(task, abi.SYS_writev, 4, iovs); got != abi.EFAULT {
			t.Errorf("writev case %d: err=%v, want EFAULT", i, got)
		}
		if got := dispatch(task, abi.SYS_readv, 3, iovs); got != abi.EFAULT {
			t.Errorf("readv case %d: err=%v, want EFAULT", i, got)
		}
	}

	// A task with no registered heap fails cleanly too.
	bare := &Task{k: k, files: task.files}
	if got := dispatch(bare, abi.SYS_writev, 4, []abi.Iovec{{Ptr: 0, Len: 8}}); got != abi.EFAULT {
		t.Errorf("heapless writev: err=%v, want EFAULT", got)
	}
}
