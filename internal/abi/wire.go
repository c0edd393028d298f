package abi

import "encoding/binary"

// This file defines the wire encodings shared by the kernel and the
// language runtimes — the equivalent of the C struct layouts Browsix's
// Emscripten integration had to pad to match the kernel's expectations
// (§4.3), and the object shapes used on the asynchronous message path.

// StatSize is the packed size of a Stat record in a process heap.
const StatSize = 64

// PackStat writes st into b (at least StatSize bytes) in the layout the
// synchronous syscall transport uses.
func PackStat(b []byte, st Stat) {
	le := binary.LittleEndian
	le.PutUint32(b[0:], st.Mode)
	le.PutUint32(b[4:], 0) // padding, as in the C struct
	le.PutUint64(b[8:], uint64(st.Size))
	le.PutUint64(b[16:], uint64(st.Mtime))
	le.PutUint64(b[24:], uint64(st.Atime))
	le.PutUint64(b[32:], uint64(st.Ctime))
	le.PutUint64(b[40:], uint64(st.Nlink))
	le.PutUint64(b[48:], st.Ino)
	le.PutUint64(b[56:], 0) // reserved
}

// UnpackStat reads a Stat packed by PackStat.
func UnpackStat(b []byte) Stat {
	le := binary.LittleEndian
	return Stat{
		Mode:  le.Uint32(b[0:]),
		Size:  int64(le.Uint64(b[8:])),
		Mtime: int64(le.Uint64(b[16:])),
		Atime: int64(le.Uint64(b[24:])),
		Ctime: int64(le.Uint64(b[32:])),
		Nlink: int(le.Uint64(b[40:])),
		Ino:   le.Uint64(b[48:]),
	}
}

// direntHeader is ino(8) + type(2) + namelen(2).
const direntHeader = 12

// PackDirents packs as many entries into buf as fit, returning the bytes
// written and the number of entries consumed. Records are 4-byte aligned,
// getdents-style.
func PackDirents(buf []byte, ents []Dirent) (n int, consumed int) {
	le := binary.LittleEndian
	for _, e := range ents {
		rec := direntRecLen(e.Name)
		if n+rec > len(buf) {
			break
		}
		le.PutUint64(buf[n:], e.Ino)
		le.PutUint16(buf[n+8:], uint16(e.Type))
		le.PutUint16(buf[n+10:], uint16(len(e.Name)))
		copy(buf[n+direntHeader:], e.Name)
		for i := n + direntHeader + len(e.Name); i < n+rec; i++ {
			buf[i] = 0
		}
		n += rec
		consumed++
	}
	return n, consumed
}

// DirentsSize is the packed size of ents: what a getdents into a large
// enough buffer returns.
func DirentsSize(ents []Dirent) int {
	n := 0
	for _, e := range ents {
		n += direntRecLen(e.Name)
	}
	return n
}

// direntRecLen is the 4-byte-aligned record length of one entry.
func direntRecLen(name string) int { return (direntHeader + len(name) + 3) &^ 3 }

// UnpackDirents decodes records written by PackDirents.
func UnpackDirents(buf []byte) []Dirent {
	le := binary.LittleEndian
	var out []Dirent
	for n := 0; n+direntHeader <= len(buf); {
		ino := le.Uint64(buf[n:])
		typ := int(le.Uint16(buf[n+8:]))
		nameLen := int(le.Uint16(buf[n+10:]))
		if n+direntHeader+nameLen > len(buf) {
			break
		}
		out = append(out, Dirent{
			Ino:  ino,
			Type: typ,
			Name: string(buf[n+direntHeader : n+direntHeader+nameLen]),
		})
		rec := (direntHeader + nameLen + 3) &^ 3
		n += rec
	}
	return out
}

// StatToMap converts a Stat to the object shape used on the asynchronous
// message path.
func StatToMap(st Stat) map[string]any {
	return map[string]any{
		"mode":  int64(st.Mode),
		"size":  st.Size,
		"mtime": st.Mtime,
		"atime": st.Atime,
		"ctime": st.Ctime,
		"nlink": int64(st.Nlink),
		"ino":   int64(st.Ino),
	}
}

// StatFromMap is the inverse of StatToMap.
func StatFromMap(m map[string]any) Stat {
	geti := func(k string) int64 {
		switch v := m[k].(type) {
		case int64:
			return v
		case int:
			return int64(v)
		case float64:
			return int64(v)
		}
		return 0
	}
	return Stat{
		Mode:  uint32(geti("mode")),
		Size:  geti("size"),
		Mtime: geti("mtime"),
		Atime: geti("atime"),
		Ctime: geti("ctime"),
		Nlink: int(geti("nlink")),
		Ino:   uint64(geti("ino")),
	}
}

// DirentToMap converts a Dirent for the asynchronous message path.
func DirentToMap(d Dirent) map[string]any {
	return map[string]any{"name": d.Name, "type": int64(d.Type), "ino": int64(d.Ino)}
}

// DirentFromMap is the inverse of DirentToMap.
func DirentFromMap(m map[string]any) Dirent {
	name, _ := m["name"].(string)
	var typ, ino int64
	switch v := m["type"].(type) {
	case int64:
		typ = v
	case int:
		typ = int64(v)
	}
	switch v := m["ino"].(type) {
	case int64:
		ino = v
	case int:
		ino = int64(v)
	}
	return Dirent{Name: name, Type: int(typ), Ino: uint64(ino)}
}
