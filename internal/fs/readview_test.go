package fs

import (
	"bytes"
	"testing"

	"repro/internal/abi"
)

func readView(t *testing.T, f *FileSystem, p string) []byte {
	t.Helper()
	var data []byte
	var got abi.Errno = -1
	f.ReadFile(p, func(b []byte, err abi.Errno) { data, got = b, err })
	if got != abi.OK {
		t.Fatalf("ReadFile(%s): %v", p, got)
	}
	return data
}

// TestReadFileViewSurvivesWrites: over memfs, ReadFile hands out the
// file's own bytes, capped at their length, and every later way of
// changing the file — Pwrite, Pwritev, a growing Truncate, an O_TRUNC
// rewrite — clones or replaces those bytes first: the view stays
// byte-identical while the file reads back the new contents, with
// write-back on and off.
func TestReadFileViewSurvivesWrites(t *testing.T) {
	const size = PageSize + 300
	cases := []struct {
		name string
		do   func(t *testing.T, f *FileSystem)
		want func(old []byte) []byte
	}{
		{"pwrite", func(t *testing.T, f *FileSystem) {
			h := openWB(t, f, "/exe", abi.O_RDWR)
			pwrite(t, h, 10, "XYZ")
			closeH(t, h)
		}, func(old []byte) []byte {
			out := append([]byte(nil), old...)
			copy(out[10:], "XYZ")
			return out
		}},
		{"pwritev", func(t *testing.T, f *FileSystem) {
			h := openWB(t, f, "/exe", abi.O_RDWR)
			var got abi.Errno = -1
			h.Pwritev(PageSize-2, [][]byte{[]byte("ab"), []byte("cd")}, func(_ int, err abi.Errno) { got = err })
			if got != abi.OK {
				t.Fatalf("pwritev: %v", got)
			}
			closeH(t, h)
		}, func(old []byte) []byte {
			out := append([]byte(nil), old...)
			copy(out[PageSize-2:], "abcd")
			return out
		}},
		{"truncate-grow", func(t *testing.T, f *FileSystem) {
			h := openWB(t, f, "/exe", abi.O_RDWR)
			truncate(t, h, size+50)
			closeH(t, h)
		}, func(old []byte) []byte {
			return append(append([]byte(nil), old...), make([]byte, 50)...)
		}},
		{"o-trunc-rewrite", func(t *testing.T, f *FileSystem) {
			mustWrite(t, f, "/exe", "rewritten")
		}, func([]byte) []byte { return []byte("rewritten") }},
	}
	for _, tc := range cases {
		for _, writeBack := range []bool{true, false} {
			mem := NewMemFS(now)
			f := NewFileSystem(mem, func() int64 { return clock })
			f.SetWriteBack(writeBack)
			mustWrite(t, f, "/exe", string(bytes.Repeat([]byte("0123456789abcdef"), size/16+1)[:size]))
			view := readView(t, f, "/exe")
			if n := memNodeAt(t, mem, "/exe"); &view[0] != &n.data[0] || !n.shared {
				t.Fatalf("%s (write-back %v): ReadFile copied the memfs bytes", tc.name, writeBack)
			}
			if cap(view) != len(view) {
				t.Fatalf("%s (write-back %v): view cap %d > len %d: an append would write into the file", tc.name, writeBack, cap(view), len(view))
			}
			old := append([]byte(nil), view...)
			tc.do(t, f)
			if !bytes.Equal(view, old) {
				t.Errorf("%s (write-back %v): the write showed through an earlier view", tc.name, writeBack)
			}
			if got := mustRead(t, f, "/exe"); got != string(tc.want(old)) {
				t.Errorf("%s (write-back %v): read %d bytes, not the new contents", tc.name, writeBack, len(got))
			}
		}
	}
}

// TestReadFileCopiesOffMemFS: every other backend's ReadFile result is a
// private copy — an httpfs body, a file in an overlay's lower layer, and
// localStorage (memfs underneath, behind its quota handle) — so scribbling
// on it changes neither the next read nor the backend's bytes.
func TestReadFileCopiesOffMemFS(t *testing.T) {
	const p = "/sty/graphicx.sty"
	ff := newTexFetcher()
	ls, lsfs := newLSFS(1 << 20)
	mustMkdirAll(t, lsfs, "/sty")
	mustWrite(t, lsfs, p, string(ff.files[p]))
	for _, tc := range []struct {
		name   string
		f      *FileSystem
		source []byte // the backend's own bytes
	}{
		{"httpfs", NewFileSystem(newHTTPFS(t, ff), func() int64 { return clock }), ff.files[p]},
		{"overlay-lower", NewFileSystem(NewOverlayFS(NewMemFS(now), newHTTPFS(t, ff)), func() int64 { return clock }), ff.files[p]},
		{"localstorage", lsfs, memNodeAt(t, ls.MemFS, p).data},
	} {
		first := readView(t, tc.f, p)
		if string(first) != "% graphicx" {
			t.Fatalf("%s: read %q", tc.name, first)
		}
		if &first[0] == &tc.source[0] {
			t.Errorf("%s: ReadFile returned the backend's bytes", tc.name)
		}
		first[0] = '!'
		if got := mustRead(t, tc.f, p); got != "% graphicx" {
			t.Errorf("%s: scribbling on one ReadFile result changed the next read to %q", tc.name, got)
		}
	}
	if memNodeAt(t, ls.MemFS, p).shared {
		t.Error("localstorage: a copying read marked the node shared")
	}
}
