package rt

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/abi"
	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/posix"
	"repro/internal/sched"
)

// heapProbe carries what the heap-recycling programs saw of their own
// heaps back to the test.
var heapProbe struct {
	heaps   []*browser.SAB
	dirty   []int // non-zero (or stale) bytes each program left or found
	pending int   // bytes the parent's write left readable in its pipe
}

func init() {
	// rt-heap-dirty writes its heap every way a process does: copied
	// and granted reads, staged write payloads and path strings in
	// scratch, stat records, ring frames, and the wake and return cells.
	posix.Register(&posix.Program{Name: "rt-heap-dirty", Main: func(p posix.Proc) int {
		r := p.(*workerRT)
		heapProbe.heaps = append(heapProbe.heaps, r.heap)
		for i := 0; i < 2; i++ {
			if _, err := posix.ReadFile(p, "/data.bin"); err != abi.OK {
				return 1
			}
		}
		payload := make([]byte, 3000)
		for i := range payload {
			payload[i] = 0xA5
		}
		if err := posix.WriteFile(p, "/out.bin", payload, 0o644); err != abi.OK {
			return 2
		}
		if _, err := p.Stat("/data.bin"); err != abi.OK {
			return 3
		}
		rfd, wfd, err := p.Pipe()
		if err != abi.OK {
			return 4
		}
		p.Write(wfd, []byte("through the pipe"))
		if b, err := p.Read(rfd, 64); err != abi.OK || string(b) != "through the pipe" {
			return 5
		}
		heapProbe.dirty = append(heapProbe.dirty, nonZero(r.heap.Bytes()))
		return 0
	}})
	posix.Register(&posix.Program{Name: "rt-heap-scan", Main: func(p posix.Proc) int {
		r := p.(*workerRT)
		heapProbe.heaps = append(heapProbe.heaps, r.heap)
		heapProbe.dirty = append(heapProbe.dirty, nonZero(r.heap.Bytes()))
		return 0
	}})
}

func nonZero(b []byte) int {
	n := 0
	for _, c := range b {
		if c != 0 {
			n++
		}
	}
	return n
}

// TestRecycledHeapIsZero: an exited sync process's heap is handed to
// the next one, and every byte of it reads as zero — on the ring with and
// without page grants, and on the scalar transport.
func TestRecycledHeapIsZero(t *testing.T) {
	for _, c := range []struct {
		name               string
		noRing, noZeroCopy bool
	}{{"ring", false, false}, {"ring-nozerocopy", false, true}, {"scalar", true, false}} {
		t.Run(c.name, func(t *testing.T) {
			heapProbe.heaps, heapProbe.dirty = nil, nil
			sim := sched.New()
			sim.MaxSteps = 5_000_000
			sys := browser.NewSystem(sim, browser.Chrome())
			clock := func() int64 { return sim.Now() }
			fsys := fs.NewFileSystem(fs.NewMemFS(clock), clock)
			k := core.NewKernel(sys, fsys, Loader(sys))
			k.DisableRing, k.DisableZeroCopy = c.noRing, c.noZeroCopy
			data := make([]byte, 40_000)
			for i := range data {
				data[i] = byte(i%251 + 1)
			}
			stage := map[string][]byte{"/data.bin": data}
			for _, prog := range []string{"rt-heap-dirty", "rt-heap-scan"} {
				stage["/"+prog] = posix.Executable(prog, string(EmSyncKind), 4096)
			}
			for path, b := range stage {
				fsys.WriteFile(path, b, 0o755, func(err abi.Errno) {
					if err != abi.OK {
						t.Fatalf("staging %s: %v", path, err)
					}
				})
			}
			for _, prog := range []string{"rt-heap-dirty", "rt-heap-scan"} {
				code, done := -1, false
				sim.Post(sys.Main.Sched(), sys.Main.Now(), func() {
					k.StartProcess(core.ProcSpec{
						Argv:    []string{"/" + prog},
						OnStart: func(_ int, err abi.Errno) { done = err != abi.OK },
						OnExit:  func(_, c int) { code, done = c, true },
					})
				})
				if !sim.RunUntil(func() bool { return done }) || code != 0 {
					t.Fatalf("%s: exit %d", prog, code)
				}
				sim.Run()
			}
			if len(heapProbe.heaps) != 2 || len(heapProbe.dirty) != 2 {
				t.Fatalf("programs reported %d heaps, %d scans", len(heapProbe.heaps), len(heapProbe.dirty))
			}
			if heapProbe.dirty[0] == 0 {
				t.Fatal("the dirtying process left no non-zero byte: the test exercises nothing")
			}
			if heapProbe.heaps[0] != heapProbe.heaps[1] {
				t.Fatal("the second process got a fresh heap, not the recycled one")
			}
			if n := heapProbe.dirty[1]; n != 0 {
				t.Fatalf("recycled heap shows %d non-zero bytes of its previous owner (of %d written)",
					n, heapProbe.dirty[0])
			}
		})
	}
}

// TestParkedReadAfterExitLandsNothing: a read still parked on a pipe
// when its process is killed completes later, when the parent writes —
// by then the dead reader's heap has been handed to the next process,
// and the late completion must land nothing in it.
func TestParkedReadAfterExitLandsNothing(t *testing.T) {
	for _, noZeroCopy := range []bool{false, true} {
		t.Run(fmt.Sprintf("nozerocopy=%v", noZeroCopy), func(t *testing.T) {
			heapProbe.heaps, heapProbe.dirty = nil, nil
			sim := sched.New()
			sim.MaxSteps = 5_000_000
			sys := browser.NewSystem(sim, browser.Chrome())
			clock := func() int64 { return sim.Now() }
			fsys := fs.NewFileSystem(fs.NewMemFS(clock), clock)
			k := core.NewKernel(sys, fsys, Loader(sys))
			k.DisableZeroCopy = noZeroCopy
			stage := map[string][]byte{
				"/parent": posix.Executable("rt-heap-parent", string(NodeKind), 4096),
				"/reader": posix.Executable("rt-heap-reader", string(EmSyncKind), 4096),
				"/late":   posix.Executable("rt-heap-late-scan", string(EmSyncKind), 4096),
			}
			for path, b := range stage {
				fsys.WriteFile(path, b, 0o755, func(err abi.Errno) {
					if err != abi.OK {
						t.Fatalf("staging %s: %v", path, err)
					}
				})
			}
			code, done := -1, false
			sim.Post(sys.Main.Sched(), sys.Main.Now(), func() {
				k.StartProcess(core.ProcSpec{
					Argv:    []string{"/parent"},
					OnStart: func(_ int, err abi.Errno) { done = err != abi.OK },
					OnExit:  func(_, c int) { code, done = c, true },
				})
			})
			if !sim.RunUntil(func() bool { return done }) || code != 0 {
				t.Fatalf("parent: exit %d", code)
			}
			sim.Run()
			if len(heapProbe.heaps) != 2 || len(heapProbe.dirty) != 1 {
				t.Fatalf("programs reported %d heaps, %d scans", len(heapProbe.heaps), len(heapProbe.dirty))
			}
			if heapProbe.heaps[0] != heapProbe.heaps[1] {
				t.Fatal("the late process got a fresh heap, not the killed reader's")
			}
			if heapProbe.pending != 0 {
				t.Fatal("the parent's write stayed in the pipe: no parked read completed late")
			}
			if n := heapProbe.dirty[0]; n != 0 {
				t.Fatalf("the killed reader's late read landed in the next process's heap (%d copies)", n)
			}
		})
	}
}

func init() {
	posix.Register(&posix.Program{Name: "rt-heap-parent", Main: func(p posix.Proc) int {
		rfd, wfd, err := p.Pipe()
		if err != abi.OK {
			return 1
		}
		reader, err := p.Spawn("/reader", []string{"reader"}, nil, []int{rfd, 1, 2})
		if err != abi.OK {
			return 2
		}
		fds := []abi.Pollfd{{Fd: int32(rfd), Events: abi.POLLIN}}
		if n, err := p.Poll(fds, 200_000_000); n != 0 || err != abi.OK {
			return 3 // the reader parks on the empty pipe meanwhile
		}
		p.Kill(reader, abi.SIGKILL)
		if _, _, err := p.Wait4(reader, 0); err != abi.OK {
			return 4
		}
		late, err := p.Spawn("/late", []string{"late"}, nil, nil)
		if err != abi.OK {
			return 5
		}
		// The parent still holds the read end, so the dead reader's
		// parked read is first in line for these bytes.
		p.Write(wfd, []byte(staleBytes))
		heapProbe.pending, _ = p.Poll(fds, 0)
		if _, _, err := p.Wait4(late, 0); err != abi.OK {
			return 6
		}
		return 0
	}})
	posix.Register(&posix.Program{Name: "rt-heap-reader", Main: func(p posix.Proc) int {
		heapProbe.heaps = append(heapProbe.heaps, p.(*workerRT).heap)
		p.Read(0, 64)
		return 0
	}})
	posix.Register(&posix.Program{Name: "rt-heap-late-scan", Main: func(p posix.Proc) int {
		r := p.(*workerRT)
		heapProbe.heaps = append(heapProbe.heaps, r.heap)
		rfd, _, err := p.Pipe()
		if err != abi.OK {
			return 1
		}
		p.Poll([]abi.Pollfd{{Fd: int32(rfd), Events: abi.POLLIN}}, 500_000_000) // the parent writes meanwhile
		heapProbe.dirty = append(heapProbe.dirty, bytes.Count(r.heap.Bytes(), []byte(staleBytes)))
		return 0
	}})
}

const staleBytes = "stale bytes for a dead reader"
