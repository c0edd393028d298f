package posix

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/abi"
)

func TestExecutableFormatRoundTrip(t *testing.T) {
	b := Executable("pdflatex", "em-sync", 4096)
	if len(b) != 4096 {
		t.Fatalf("size = %d", len(b))
	}
	name, runtime, ok := ParseExecutable(b)
	if !ok || name != "pdflatex" || runtime != "em-sync" {
		t.Fatalf("parse: %q %q %v", name, runtime, ok)
	}
}

func TestExecutableMinimumSize(t *testing.T) {
	b := Executable("x", "node", 1) // smaller than the header
	name, _, ok := ParseExecutable(b)
	if !ok || name != "x" {
		t.Fatal("tiny executable must still parse")
	}
}

func TestParseExecutableRejectsGarbage(t *testing.T) {
	for _, bad := range [][]byte{nil, []byte("#!/bin/sh\n"), []byte("//# browsix-executable v2\n")} {
		if _, _, ok := ParseExecutable(bad); ok {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestExecutableProperty(t *testing.T) {
	f := func(nameSeed, rtSeed uint16, size uint16) bool {
		name := "p" + strings.Repeat("a", int(nameSeed%40))
		kind := "k" + strings.Repeat("b", int(rtSeed%10))
		got, gotRt, ok := ParseExecutable(Executable(name, kind, int(size)))
		return ok && got == name && gotRt == kind
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryLookup(t *testing.T) {
	Register(&Program{Name: "posix-test-prog", Main: func(Proc) int { return 0 }})
	if Lookup("posix-test-prog") == nil {
		t.Fatal("registered program not found")
	}
	if Lookup("never-registered-xyz") != nil {
		t.Fatal("phantom program")
	}
	found := false
	for _, n := range ProgramNames() {
		if n == "posix-test-prog" {
			found = true
		}
	}
	if !found {
		t.Fatal("ProgramNames missing entry")
	}
}

func TestRegisterValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid registration accepted")
		}
	}()
	Register(&Program{Name: "", Main: nil})
}

func TestEnvHelpers(t *testing.T) {
	env := []string{"PATH=/usr/bin", "HOME=/root"}
	if Getenv(env, "PATH") != "/usr/bin" {
		t.Fatal("Getenv")
	}
	if Getenv(env, "PAT") != "" || Getenv(env, "MISSING") != "" {
		t.Fatal("Getenv prefix confusion")
	}
	env = SetEnv(env, "PATH", "/bin")
	if Getenv(env, "PATH") != "/bin" || len(env) != 2 {
		t.Fatalf("SetEnv replace: %v", env)
	}
	env = SetEnv(env, "NEW", "v")
	if Getenv(env, "NEW") != "v" || len(env) != 3 {
		t.Fatalf("SetEnv append: %v", env)
	}
}

func TestJoinNul(t *testing.T) {
	if JoinNul(nil) != "" {
		t.Fatal("empty")
	}
	if JoinNul([]string{"a", "b"}) != "a\x00b\x00" {
		t.Fatalf("packed: %q", JoinNul([]string{"a", "b"}))
	}
}

func TestPathHelpers(t *testing.T) {
	if Basename("/usr/bin/make") != "make" || Basename("plain") != "plain" {
		t.Fatal("Basename")
	}
	if Dirname("/usr/bin/make") != "/usr/bin" || Dirname("/x") != "/" || Dirname("rel") != "." {
		t.Fatal("Dirname")
	}
}

// fakeProc implements just enough of Proc (Read in scripted chunks,
// Write accumulating, short writes on demand) to exercise the "libc"
// helpers; the embedded nil Proc panics on anything unscripted.
type fakeProc struct {
	Proc
	reads  [][]byte
	wrote  []byte
	shortW bool
}

func (m *fakeProc) Read(fd, n int) ([]byte, abi.Errno) {
	if len(m.reads) == 0 {
		return nil, abi.OK
	}
	b := m.reads[0]
	m.reads = m.reads[1:]
	if len(b) > n {
		m.reads = append([][]byte{b[n:]}, m.reads...)
		b = b[:n]
	}
	return b, abi.OK
}

func (m *fakeProc) ReadInto(fd int, dst []byte) (int, abi.Errno) {
	b, err := m.Read(fd, len(dst))
	return copy(dst, b), err
}

func (m *fakeProc) Write(fd int, b []byte) (int, abi.Errno) {
	if m.shortW && len(b) > 1 {
		m.wrote = append(m.wrote, b[0])
		return 1, abi.OK
	}
	m.wrote = append(m.wrote, b...)
	return len(b), abi.OK
}

func TestWriteAllLoopsOnShortWrites(t *testing.T) {
	m := &fakeProc{shortW: true}
	if err := WriteAll(m, 1, []byte("abcdef")); err != abi.OK {
		t.Fatal(err)
	}
	if string(m.wrote) != "abcdef" {
		t.Fatalf("wrote %q", m.wrote)
	}
}

func TestReadAllConcatenates(t *testing.T) {
	m := &fakeProc{reads: [][]byte{[]byte("ab"), []byte("cd"), []byte("e")}}
	got, err := ReadAll(m, 0)
	if err != abi.OK || string(got) != "abcde" {
		t.Fatalf("ReadAll = %q (%v)", got, err)
	}
}

func TestLineReaderSplitsAcrossChunks(t *testing.T) {
	m := &fakeProc{reads: [][]byte{[]byte("li"), []byte("ne1\nline2\nta"), []byte("il")}}
	lr := NewLineReader(m, 0)
	var lines []string
	for {
		line, ok, err := lr.ReadLine()
		if err != abi.OK {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		lines = append(lines, line)
	}
	want := []string{"line1", "line2", "tail"}
	if len(lines) != len(want) {
		t.Fatalf("lines = %v", lines)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("lines = %v", lines)
		}
	}
}

func TestCopyFd(t *testing.T) {
	m := &fakeProc{reads: [][]byte{[]byte("stream"), []byte("ing")}}
	n, err := CopyFd(m, 1, 0)
	if err != abi.OK || n != 9 || string(m.wrote) != "streaming" {
		t.Fatalf("CopyFd: n=%d wrote=%q err=%v", n, m.wrote, err)
	}
}

// TestLineReaderAllocsLinear: splitting 1 MiB of short lines must
// allocate in proportion to the input — the lines themselves and the
// chunk buffer — not a scan of the whole buffer per line.
func TestLineReaderAllocsLinear(t *testing.T) {
	var in []byte
	for i := 0; len(in) < 1<<20; i++ {
		in = fmt.Appendf(in, "line %06d\n", i)
	}
	m := &fakeProc{reads: [][]byte{in}}
	lr := NewLineReader(m, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lines := 0
	for {
		line, ok, err := lr.ReadLine()
		if err != abi.OK {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if len(line) != len("line 000000") || line[:5] != "line " {
			t.Fatalf("line %d = %q", lines, line)
		}
		lines++
	}
	runtime.ReadMemStats(&after)
	if want := bytes.Count(in, []byte{'\n'}); lines != want {
		t.Fatalf("read %d lines, want %d", lines, want)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d bytes allocated reading %d bytes (%d lines)", got, len(in), lines)
	if got >= 4*uint64(len(in)) {
		t.Fatalf("ReadLine allocated %d bytes for %d bytes of input (%d lines), want < 4x", got, len(in), lines)
	}
}
