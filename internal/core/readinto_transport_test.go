package core_test

import (
	"bytes"
	"crypto/sha1"
	"fmt"
	"strings"
	"testing"

	"repro/internal/abi"
	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/posix"
	"repro/internal/rt"
)

// Two programs reading the same files, one through ReadFile (a fresh
// slice per read) and one through ReadFileInto (one reused buffer). A
// caller-owned buffer is a host-side change only: the kernel must see
// the same traps with the same arguments, and the clock must not move.
func init() {
	files := []string{"/big.bin", "/big.bin", "/small.txt", "/big.bin"}
	report := func(p posix.Proc, data []byte) {
		posix.Fprintf(p, abi.Stdout, "%d %x\n", len(data), sha1.Sum(data))
	}
	posix.Register(&posix.Program{Name: "t-readfile", Main: func(p posix.Proc) int {
		for _, f := range files {
			data, err := posix.ReadFile(p, f)
			if err != abi.OK {
				return 1
			}
			report(p, data)
		}
		return 0
	}})
	posix.Register(&posix.Program{Name: "t-readfile-into", Main: func(p posix.Proc) int {
		var buf []byte
		for _, f := range files {
			var err abi.Errno
			buf, err = posix.ReadFileInto(p, f, buf[:0])
			if err != abi.OK {
				return 1
			}
			report(p, buf)
		}
		return 0
	}})
}

// trapLog records every system call a process makes as the kernel
// receives it: async messages by name and cloned arguments, scalar sync
// messages by trap and integer arguments, and each ring doorbell's call
// frames, decoded from a copy of the request ring.
type trapLog struct {
	lines []string
	heap  *browser.SAB
	ring  [2]int64 // request ring offset and length
}

func (l *trapLog) wrap(w *browser.Worker) {
	next := w.OnMessage
	w.OnMessage = func(v browser.Value) {
		m, _ := v.(map[string]browser.Value)
		switch browser.GetString(m, "type") {
		case "syscall":
			args := browser.GetArray(m, "args")
			switch name := browser.GetString(m, "name"); name {
			case "personality":
				l.heap, _ = args[0].(*browser.SAB)
			case "ring":
				l.ring = [2]int64{args[0].(int64), args[1].(int64)}
			}
			l.add("async %s %v", browser.GetString(m, "name"), cloneArgs(args))
		case "sync":
			l.add("sync %d %v", browser.GetInt(m, "trap"), browser.GetArray(m, "args"))
		case "ringbell":
			region := l.heap.Bytes()[l.ring[0] : l.ring[0]+l.ring[1]]
			r := abi.NewRing(append([]byte(nil), region...))
			for {
				seq, trap, args, ok := r.PopCall()
				if !ok {
					break
				}
				l.add("ring %d %d %v", seq, trap, args)
			}
		}
		next(v)
	}
}

// cloneArgs prints a SharedArrayBuffer argument by its length: its
// identity differs from run to run, its shape must not.
func cloneArgs(args []browser.Value) []any {
	out := make([]any, len(args))
	for i, a := range args {
		if sab, ok := a.(*browser.SAB); ok {
			a = fmt.Sprintf("sab[%d]", sab.Len())
		}
		out[i] = a
	}
	return out
}

func (l *trapLog) add(format string, args ...any) {
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

// readRun is one program's observable run.
type readRun struct {
	traps   []string
	clock   int64
	out     string
	copied  int64
	granted int64
}

func runReader(t *testing.T, prog string, kind rt.Kind, disableRing, disableZeroCopy bool) readRun {
	t.Helper()
	w := boot(t)
	w.k.DisableRing = disableRing
	w.k.DisableZeroCopy = disableZeroCopy
	w.install(t, "/usr/bin/reader", prog, kind)
	big := make([]byte, 100_000)
	for i := range big {
		big[i] = byte(i*31 + i>>8)
	}
	for path, data := range map[string][]byte{"/big.bin": big, "/small.txt": []byte("small file\n")} {
		w.fs.WriteFile(path, data, 0o644, func(err abi.Errno) {
			if err != abi.OK {
				t.Fatalf("staging %s: %v", path, err)
			}
		})
	}
	log := &trapLog{}
	var out bytes.Buffer
	code, done := -1, false
	w.sim.Post(w.sys.Main.Sched(), w.sys.Main.Now(), func() {
		w.k.StartProcess(core.ProcSpec{
			Argv: []string{"/usr/bin/reader"},
			OnStart: func(pid int, err abi.Errno) {
				if err != abi.OK {
					t.Errorf("spawn: %v", err)
					done = true
					return
				}
				log.wrap(w.k.Task(pid).Worker())
			},
			OnExit:   func(_, c int) { code, done = c, true },
			OnStdout: func(b []byte) { out.Write(b) },
		})
	})
	if !w.sim.RunUntil(func() bool { return done }) {
		t.Fatalf("%s never exited", prog)
	}
	clock := w.sim.Now()
	w.sim.Run()
	if code != 0 {
		t.Fatalf("%s exited %d", prog, code)
	}
	return readRun{traps: log.lines, clock: clock, out: out.String(),
		copied: w.k.ReadCopiedBytes.Load(), granted: w.k.FS.CacheStats().GrantedPages}
}

func TestReadIntoSameTrapsAllTransports(t *testing.T) {
	cases := []struct {
		name                   string
		kind                   rt.Kind
		noRing, noZeroCopy     bool
		wantRing, wantGranted  bool
		wantAsync, wantScalars bool
	}{
		{name: "async", kind: rt.NodeKind, wantAsync: true},
		{name: "async-nozerocopy", kind: rt.NodeKind, noZeroCopy: true, wantAsync: true},
		{name: "scalar", kind: rt.EmSyncKind, noRing: true, wantScalars: true},
		{name: "scalar-nozerocopy", kind: rt.EmSyncKind, noRing: true, noZeroCopy: true, wantScalars: true},
		{name: "ring", kind: rt.EmSyncKind, wantRing: true, wantGranted: true},
		{name: "ring-nozerocopy", kind: rt.EmSyncKind, noZeroCopy: true, wantRing: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			old := runReader(t, "t-readfile", c.kind, c.noRing, c.noZeroCopy)
			into := runReader(t, "t-readfile-into", c.kind, c.noRing, c.noZeroCopy)
			if old.out != into.out || strings.Count(old.out, "\n") != 4 {
				t.Fatalf("outputs differ or incomplete:\n%s\nvs\n%s", old.out, into.out)
			}
			if old.clock != into.clock {
				t.Errorf("virtual clock %d ns with ReadFile, %d ns with ReadFileInto", old.clock, into.clock)
			}
			if old.copied != into.copied || old.granted != into.granted {
				t.Errorf("copied/granted %d/%d with ReadFile, %d/%d with ReadFileInto",
					old.copied, old.granted, into.copied, into.granted)
			}
			if len(old.traps) != len(into.traps) {
				t.Fatalf("%d trap records with ReadFile, %d with ReadFileInto", len(old.traps), len(into.traps))
			}
			for i := range old.traps {
				if old.traps[i] != into.traps[i] {
					t.Fatalf("trap %d differs:\n  ReadFile:     %s\n  ReadFileInto: %s", i, old.traps[i], into.traps[i])
				}
			}
			seen := map[string]bool{}
			for _, l := range old.traps {
				seen[strings.Fields(l)[0]] = true
				seen[strings.Join(strings.Fields(l)[:2], " ")] = true
			}
			if seen["ring"] != c.wantRing {
				t.Errorf("ring frames seen = %v, want %v", seen["ring"], c.wantRing)
			}
			if seen["sync"] != c.wantScalars {
				t.Errorf("scalar sync calls seen = %v, want %v", seen["sync"], c.wantScalars)
			}
			if seen["async read"] != c.wantAsync {
				t.Errorf("async reads seen = %v, want %v", seen["async read"], c.wantAsync)
			}
			if got := old.granted > 0; got != c.wantGranted {
				t.Errorf("pages granted = %d, want granted %v", old.granted, c.wantGranted)
			}
		})
	}
}
