// Package fs reimplements the file-system layer Browsix builds on: Doppio's
// BrowserFS plus the Browsix extensions described in §3.6 of the paper,
// grown into a real VFS core:
//
//   - a per-component namei walker (symlinks — intermediate and trailing —
//     `..`, trailing slashes, and mount crossings resolved one component
//     at a time, depth-limited),
//   - a dentry/attribute cache with negative entries, invalidated on every
//     mutating operation, so repeated stat/open of hot paths never re-hit
//     a backend,
//   - a page cache with sequential readahead fronting the network and
//     read-only backends (httpfs, zipfs, overlay lower layers),
//   - vectored file handles (Preadv/Pwritev), so the iovec frames the ring
//     transport carries through the kernel reach storage without
//     coalescing copies.
//
// Like BrowserFS, the API is callback-based (continuation-passing style):
// the kernel runs on the browser's main thread and can never block, so
// every operation takes a completion callback. Purely in-memory backends
// complete synchronously (the callback runs before the call returns);
// network-backed backends complete later via simulator events.
//
// The package provides:
//   - a mount table combining multiple backends into one hierarchy,
//   - an in-memory backend (memfs),
//   - a read-only HTTP-backed backend with an index file and lazy per-file
//     fetching (httpfs — BrowserFS's XmlHttpRequest backend),
//   - a read-only zip-file backend (zipfs),
//   - an overlay backend with lazy copy-up, a deletion log, and the
//     multi-process locking Browsix added (overlayfs).
package fs

import (
	"path"
	"sort"
	"strings"

	"repro/internal/abi"
)

// FileHandle is an open file. Reads and writes are positional, as in
// BrowserFS; the kernel layers file offsets on top.
type FileHandle interface {
	// Pread reads up to n bytes at off. A short or empty result at EOF
	// is not an error.
	Pread(off int64, n int, cb func([]byte, abi.Errno))
	// Pwrite writes data at off, returning bytes written.
	Pwrite(off int64, data []byte, cb func(int, abi.Errno))
	// Preadv reads up to sum(lens) bytes at off, returning the data as
	// one or more segments. Segment boundaries need not match lens —
	// callers scatter the stream themselves — but the total never
	// exceeds sum(lens). A nil result at EOF is not an error.
	Preadv(off int64, lens []int, cb func([][]byte, abi.Errno))
	// Pwritev writes the buffers back to back starting at off, without
	// requiring the caller to coalesce them, returning bytes written.
	Pwritev(off int64, bufs [][]byte, cb func(int, abi.Errno))
	// Stat describes the open file.
	Stat(cb func(abi.Stat, abi.Errno))
	// Truncate sets the file size.
	Truncate(size int64, cb func(abi.Errno))
	// Close releases the handle.
	Close(cb func(abi.Errno))
}

// Backend is one mounted file system implementation. Paths are absolute
// within the backend ("/" is the backend's root) and already cleaned.
type Backend interface {
	Name() string
	ReadOnly() bool
	Stat(p string, cb func(abi.Stat, abi.Errno))
	// Lstat is like Stat but does not follow a trailing symlink.
	Lstat(p string, cb func(abi.Stat, abi.Errno))
	Open(p string, flags int, mode uint32, cb func(FileHandle, abi.Errno))
	Readdir(p string, cb func([]abi.Dirent, abi.Errno))
	Mkdir(p string, mode uint32, cb func(abi.Errno))
	Rmdir(p string, cb func(abi.Errno))
	Unlink(p string, cb func(abi.Errno))
	Rename(oldp, newp string, cb func(abi.Errno))
	Readlink(p string, cb func(string, abi.Errno))
	Symlink(target, linkp string, cb func(abi.Errno))
	Utimes(p string, atime, mtime int64, cb func(abi.Errno))
}

// mount is one entry in the mount table.
type mount struct {
	prefix  string // "/", "/usr/share/texlive", ...
	backend Backend
}

// FileSystem is the kernel's VFS: a mount table over backends, a namei
// walker, and the dentry/page caches.
type FileSystem struct {
	mounts []mount // sorted by descending prefix length
	now    func() int64

	dc             *dcache
	pc             *pageCache
	cachesOn       bool
	readaheadPages int

	// writeBack selects the write-back data path (writeback.go);
	// dirtyBudget bounds the buffered bytes before a forced flush.
	writeBack   bool
	dirtyBudget int64

	// Age-based background flusher (writeback.go): dirty extents older
	// than flushAge flush on a virtual-time timer, so quiet long-lived
	// files land without an fsync. flushTimer is the scheduler the
	// kernel wires in; 0/nil disables.
	flushAge        int64
	flushTimer      func(delayNs int64, fn func())
	flushTimerArmed bool
}

// NewFileSystem creates a file system whose root is the given backend.
// now supplies virtual time for mtimes. Caching is on by default.
func NewFileSystem(root Backend, now func() int64) *FileSystem {
	f := &FileSystem{
		now:            now,
		dc:             newDcache(),
		pc:             newPageCache(),
		cachesOn:       true,
		readaheadPages: DefaultReadaheadPages,
		writeBack:      true,
		dirtyBudget:    maxDirtyBytes,
	}
	f.mounts = []mount{{prefix: "/", backend: root}}
	return f
}

// SetCaching enables or disables the dentry and page caches (the
// cache-off configuration of the differential tests and ablations).
// Toggling flushes everything.
func (f *FileSystem) SetCaching(on bool) {
	f.cachesOn = on
	f.FlushCaches()
}

// SetReadahead sets the sequential readahead window in pages (0 disables
// readahead; the page cache itself stays on).
func (f *FileSystem) SetReadahead(pages int) { f.readaheadPages = pages }

// SetDedup enables or disables the content-addressed sharing tier for
// pages this FileSystem caches (the dedup-off configuration of the
// differential tests and ablations). Dedup is on by default; it changes
// where immutable pages physically live, never their bytes or the
// virtual clock. No flush: already-resident pages keep their class.
func (f *FileSystem) SetDedup(on bool) { f.pc.dedupOff = !on }

// FlushCaches drops every cached dentry and page (cold-cache runs).
// Buffered write-back state is flushed to the backends first — dropping
// it would lose data (flush-on-unmount: Mount routes through here).
func (f *FileSystem) FlushCaches() {
	f.flushAllDirtyNow()
	f.dc.flush()
	f.pc.flush()
}

// CacheStats reports cache effectiveness counters for the hit-rate
// experiments (EXPERIMENTS.md).
type CacheStats struct {
	DentryHits    int64 // per-component positive hits
	DentryMisses  int64 // per-component misses (backend consulted)
	NegativeHits  int64 // per-component negative (ENOENT) hits
	WalkHits      int64 // whole-walk fast-path hits
	ReaddirHits   int64 // cached directory-listing hits
	ReaddirMisses int64 // directory listings built from backends
	PageHits      int64 // page-cache read hits
	PageMisses    int64 // page-cache read misses (backend consulted)
	ReadaheadOps  int64 // completed readahead backend reads
	PageBytes     int64 // bytes currently cached
	DentryEntries int   // dentries currently cached
	WalkNodes     int   // radix nodes in the whole-walk tier

	// Write-back counters (writeback.go).
	BufferedWrites  int64 // writes absorbed into dirty extents
	Flushes         int64 // per-path flush operations
	FlushWrites     int64 // vectored backend writes the flusher issued
	OverflowFlushes int64 // flushes forced by the dirty budget
	AgedFlushes     int64 // background flushes triggered by extent age
	DirtyBytes      int64 // bytes currently buffered

	// Zero-copy lease counters (pagepool.go).
	GrantedPages  int64 // pages granted out as leases
	ReturnedPages int64 // leases returned
	PinnedPages   int   // pool slots currently pinned by leases

	// Content-addressed dedup counters (the cross-tenant sharing tier).
	CachedPages int64 // resident cached pages (logical, shared + private)
	DedupPages  int64 // resident pages referencing shared dedup slots
	SharedBytes int64 // bytes of those shared references
	DedupHits   int64 // dedup index hits since boot
	DedupStores int64 // dedup-eligible page stores since boot

	// Batched-lookup counters (dcache batch path).
	BatchedLookups int64 // lookups resolved through StatBatch batches
	StatBatches    int64 // multi-element StatBatch calls
}

// CacheStats returns a snapshot of the cache counters. Every field is
// read through an atomic, so the snapshot is safe to take from the host
// while the Instance runs on another thread (per-field reads are atomic;
// the struct as a whole is a loose snapshot, not a consistent cut).
func (f *FileSystem) CacheStats() CacheStats {
	return CacheStats{
		DentryHits:    f.dc.hits.Load(),
		DentryMisses:  f.dc.misses.Load(),
		NegativeHits:  f.dc.negHits.Load(),
		WalkHits:      f.dc.walkHits.Load(),
		ReaddirHits:   f.dc.dirHits.Load(),
		ReaddirMisses: f.dc.dirMisses.Load(),
		PageHits:      f.pc.hits.Load(),
		PageMisses:    f.pc.misses.Load(),
		ReadaheadOps:  f.pc.readaheads.Load(),
		PageBytes:     f.pc.bytes.Load(),
		DentryEntries: int(f.dc.entryCount.Load()),
		WalkNodes:     int(f.dc.walkNodeCount.Load()),

		BufferedWrites:  f.pc.bufferedWrites.Load(),
		Flushes:         f.pc.flushes.Load(),
		FlushWrites:     f.pc.flushWrites.Load(),
		OverflowFlushes: f.pc.overflowFlushes.Load(),
		AgedFlushes:     f.pc.agedFlushes.Load(),
		DirtyBytes:      f.pc.dirtyBytes.Load(),

		GrantedPages:  f.pc.grantedPages.Load(),
		ReturnedPages: f.pc.returnedPages.Load(),
		PinnedPages:   int(f.pc.pool.pinned.Load()),

		CachedPages: f.pc.cachedPages.Load(),
		DedupPages:  f.pc.dedupPages.Load(),
		SharedBytes: f.pc.sharedBytes.Load(),
		DedupHits:   f.pc.dedupHits.Load(),
		DedupStores: f.pc.dedupStores.Load(),

		BatchedLookups: f.dc.batchedLookups.Load(),
		StatBatches:    f.dc.statBatches.Load(),
	}
}

// Mount attaches a backend at prefix (an absolute, existing-or-not path).
// Longest-prefix wins at resolution, like BrowserFS's MountableFileSystem.
// Mounting changes what every path resolves to, so the caches flush.
func (f *FileSystem) Mount(prefix string, b Backend) {
	prefix = Clean(prefix)
	f.mounts = append(f.mounts, mount{prefix: prefix, backend: b})
	sort.SliceStable(f.mounts, func(i, j int) bool {
		return len(f.mounts[i].prefix) > len(f.mounts[j].prefix)
	})
	f.FlushCaches()
}

// Mounts lists mount points (diagnostics, and the terminal's `mount`).
func (f *FileSystem) Mounts() []string {
	out := make([]string, len(f.mounts))
	for i, m := range f.mounts {
		out[i] = m.prefix + " (" + m.backend.Name() + ")"
	}
	return out
}

// MountPrefixes lists just the mount-point paths, longest first.
func (f *FileSystem) MountPrefixes() []string {
	out := make([]string, len(f.mounts))
	for i, m := range f.mounts {
		out[i] = m.prefix
	}
	return out
}

// Clean normalizes an absolute path: it forces a leading slash and
// collapses ".", "..", and repeated slashes. ".." components that would
// escape the root are clamped at "/" (trailing-slash semantics are
// handled by the walker, which sees the raw path).
func Clean(p string) string {
	if p == "" {
		return "/"
	}
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return path.Clean(p)
}

// Abs resolves a possibly-relative path against cwd, normalizing
// slashes and "." while preserving both ".." components (the walker
// resolves them against symlink *targets*, which a lexical Clean cannot)
// and a trailing slash (the walker gives it its POSIX directory
// meaning). Kernel and host syscall layers share this so the transports
// cannot diverge.
func Abs(cwd, p string) string {
	joined := p
	if len(p) == 0 || p[0] != '/' {
		joined = cwd + "/" + p
	}
	ap := "/" + strings.Join(splitPath(joined), "/")
	if hadTrailingSlash(p) && ap != "/" {
		ap += "/" // keep the directory requirement ("p/" and "p/.")
	}
	return ap
}

// resolveMount finds the backend owning p and p's path within it.
func (f *FileSystem) resolveMount(p string) (Backend, string) {
	p = Clean(p)
	for _, m := range f.mounts {
		if p == m.prefix {
			return m.backend, "/"
		}
		pre := m.prefix
		if pre != "/" {
			pre += "/"
		}
		if strings.HasPrefix(p, pre) {
			return m.backend, Clean(p[len(m.prefix):])
		}
	}
	// Unreachable: the root mount matches everything.
	last := f.mounts[len(f.mounts)-1]
	return last.backend, p
}

// ---------------------------------------------------------------------------
// Cache invalidation. Every mutating operation lands here.
// ---------------------------------------------------------------------------

// invalidatePath drops the dentry, walk, and page caches for one path
// (content or attributes changed). Buffered write-back state flushes
// first, through the handle that buffered it: the generation bump below
// unbinds the name from the file, but the buffered bytes belong to the
// file and must land in it.
func (f *FileSystem) invalidatePath(p string) {
	f.flushDirtyNow(p)
	f.dc.drop(p)
	f.pc.drop(p)
}

// invalidateEntry drops a path and its parent directory (creation or
// removal changes the parent's mtime and the child's existence).
func (f *FileSystem) invalidateEntry(p, parent string) {
	f.flushDirtyNow(p)
	f.dc.drop(p)
	f.dc.drop(parent)
	f.pc.drop(p)
}

// invalidateTree drops a path, its parent, and everything below the path
// (directory rename/removal).
func (f *FileSystem) invalidateTree(p, parent string) {
	f.flushDirtyTreeNow(p)
	f.dc.dropTree(p)
	f.dc.drop(parent)
	f.pc.dropTree(p)
}

// ---------------------------------------------------------------------------
// VFS operations. Every path-taking operation resolves through the namei
// walker; results and attributes come from the caches when warm.
// ---------------------------------------------------------------------------

// StatReq is one element of a StatBatch: a path lookup, optionally with
// lstat (no-trailing-symlink) semantics.
type StatReq struct {
	Path  string
	Lstat bool
}

// StatBatch resolves a batch of path-metadata lookups. It is the single
// entry point every transport's stat/lstat/access dispatch routes
// through: the ring transport hands a whole drained doorbell of stat
// frames here at once, the scalar and async transports arrive with
// batch size 1 — so all three stay byte-identical by construction.
// It is the pure-metadata form of MetaBatch below.
func (f *FileSystem) StatBatch(reqs []StatReq, cb func([]abi.Stat, []abi.Errno)) {
	if len(reqs) == 1 {
		// Batch of one — the scalar/async common case: a direct walk,
		// no batch bookkeeping allocations on the hottest metadata path.
		r := reqs[0]
		f.walk(r.Path, walkOpts{follow: !r.Lstat}, func(e walkEnt) {
			if e.err != abi.OK {
				cb([]abi.Stat{{}}, []abi.Errno{e.err})
				return
			}
			st := e.st
			f.patchDirtyStat(e.path, &st)
			cb([]abi.Stat{st}, []abi.Errno{abi.OK})
		})
		return
	}
	mreqs := make([]MetaReq, len(reqs))
	for i, r := range reqs {
		mreqs[i] = MetaReq{Kind: MetaStat, Path: r.Path}
		if r.Lstat {
			mreqs[i].Kind = MetaLstat
		}
	}
	f.MetaBatch(mreqs, func(res []MetaRes) {
		sts := make([]abi.Stat, len(res))
		errs := make([]abi.Errno, len(res))
		for i, r := range res {
			sts[i], errs[i] = r.St, r.Err
		}
		cb(sts, errs)
	})
}

// MetaKind selects the operation of one MetaBatch element.
type MetaKind int

// MetaBatch element kinds: the path-lookup calls a shell's probe storms
// are made of.
const (
	MetaStat MetaKind = iota
	MetaLstat
	MetaAccess
	MetaReadlink
	MetaOpen
)

// MetaReq is one element of a MetaBatch. Flags/Mode apply to MetaOpen.
type MetaReq struct {
	Kind  MetaKind
	Path  string
	Flags int
	Mode  uint32
}

// MetaRes is one MetaBatch result. For MetaOpen with Err == OK, a nil
// Handle means the path is a directory (St describes it; the kernel
// installs its directory object) — mirroring the kernel's open split.
type MetaRes struct {
	St     abi.Stat
	Err    abi.Errno
	Target string     // MetaReadlink
	Handle FileHandle // MetaOpen (nil for directories)
}

// MetaBatch resolves a batch of path operations — stat/lstat/access
// plus the readlink and plain read-only open calls that ride along in a
// shell's PATH-probing storms. A multi-element batch first resolves
// every walk it can against the dentry cache's batch lookup path (one
// pass for the whole storm — opens included, since an open's directory
// check is the same follow-walk); only the misses fall back to full
// walks, and only regular-file opens touch a backend. Results carry the
// write-back overlay: a path with buffered dirty extents reports its
// virtual size and buffered mtime.
func (f *FileSystem) MetaBatch(reqs []MetaReq, cb func([]MetaRes)) {
	res := make([]MetaRes, len(reqs))
	resolved := make([]bool, len(reqs))
	// batchSt holds the batch pass's walk result for MetaOpen elements:
	// the open continuation reuses it instead of re-statting.
	var batchSt map[int]abi.Stat
	if f.cachesOn && len(reqs) > 1 {
		batchSt = make(map[int]abi.Stat)
		f.dc.statBatches.Add(1)
		paths := make([]string, len(reqs))
		opts := make([]walkOpts, len(reqs))
		for i, r := range reqs {
			if r.Kind == MetaReadlink {
				continue // needs the backend (or memoized target) anyway
			}
			o := walkOpts{follow: r.Kind != MetaLstat}
			if hadTrailingSlash(r.Path) {
				o.follow, o.requireDir = true, true
			}
			opts[i] = o
			if !strings.Contains(r.Path, "..") {
				// ".."-containing paths are never whole-walk cached
				// (namei.go); an empty path skips them in the batch pass.
				paths[i] = r.Path
			}
		}
		ents, ok := f.dc.getWalkBatch(paths, opts)
		for i := range reqs {
			if !ok[i] {
				continue
			}
			st := ents[i].st
			f.patchDirtyStat(ents[i].path, &st)
			switch reqs[i].Kind {
			case MetaStat, MetaLstat, MetaAccess:
				res[i].St = st
				resolved[i] = true
			case MetaOpen:
				batchSt[i] = st
			}
		}
	}
	var step func(i int)
	step = func(i int) {
		if i >= len(reqs) {
			cb(res)
			return
		}
		if resolved[i] {
			step(i + 1)
			return
		}
		next := func() { step(i + 1) }
		r := reqs[i]
		switch r.Kind {
		case MetaStat, MetaLstat, MetaAccess:
			f.walk(r.Path, walkOpts{follow: r.Kind != MetaLstat}, func(e walkEnt) {
				if e.err != abi.OK {
					res[i].Err = e.err
				} else {
					res[i].St = e.st
					f.patchDirtyStat(e.path, &res[i].St)
				}
				next()
			})
		case MetaReadlink:
			f.Readlink(r.Path, func(target string, err abi.Errno) {
				res[i].Target, res[i].Err = target, err
				next()
			})
		case MetaOpen:
			cont := func(st abi.Stat, serr abi.Errno) { f.metaOpen(r, st, serr, &res[i], next) }
			if st, ok := batchSt[i]; ok {
				cont(st, abi.OK)
				return
			}
			f.Stat(r.Path, cont)
		default:
			res[i].Err = abi.EINVAL
			next()
		}
	}
	step(0)
}

// metaOpen finishes a MetaOpen element from its stat result, mirroring
// the kernel's open split exactly: directories resolve without touching
// a backend (the kernel installs its directory object over St); regular
// files go through the ordinary Open path — page-cached handles, write
// barriers and all.
func (f *FileSystem) metaOpen(r MetaReq, st abi.Stat, serr abi.Errno, out *MetaRes, next func()) {
	if serr == abi.OK && st.IsDir() {
		if r.Flags&abi.O_ACCMODE != abi.O_RDONLY {
			out.Err = abi.EISDIR
			next()
			return
		}
		out.St = st
		next()
		return
	}
	if r.Flags&abi.O_DIRECTORY != 0 {
		if serr != abi.OK {
			out.Err = serr
		} else {
			out.Err = abi.ENOTDIR
		}
		next()
		return
	}
	f.Open(r.Path, r.Flags, r.Mode, func(h FileHandle, err abi.Errno) {
		out.St, out.Err, out.Handle = st, err, h
		next()
	})
}

// Stat stats a path, following symlinks (a StatBatch of one).
func (f *FileSystem) Stat(p string, cb func(abi.Stat, abi.Errno)) {
	f.StatBatch([]StatReq{{Path: p}}, func(sts []abi.Stat, errs []abi.Errno) {
		cb(sts[0], errs[0])
	})
}

// Resolve walks p (following symlinks) and reports the canonical,
// symlink-free absolute path of the result along with its attributes —
// what chdir must store so later relative lookups agree with what was
// validated.
func (f *FileSystem) Resolve(p string, cb func(string, abi.Stat, abi.Errno)) {
	f.walk(p, walkOpts{follow: true}, func(e walkEnt) {
		if e.err != abi.OK {
			cb("", abi.Stat{}, e.err)
			return
		}
		cb(e.path, e.st, abi.OK)
	})
}

// Lstat stats a path without following a trailing symlink (a StatBatch
// of one).
func (f *FileSystem) Lstat(p string, cb func(abi.Stat, abi.Errno)) {
	f.StatBatch([]StatReq{{Path: p, Lstat: true}}, func(sts []abi.Stat, errs []abi.Errno) {
		cb(sts[0], errs[0])
	})
}

// Open opens (and with O_CREAT possibly creates) a file. Read-only opens
// on cacheable backends return page-cached handles whose backend handle
// is opened lazily; write-capable handles invalidate the caches as they
// mutate.
func (f *FileSystem) Open(p string, flags int, mode uint32, cb func(FileHandle, abi.Errno)) {
	wantsWrite := flags&abi.O_ACCMODE != abi.O_RDONLY || flags&(abi.O_CREAT|abi.O_TRUNC) != 0
	f.walk(p, walkOpts{follow: true}, func(e walkEnt) {
		// Open barrier: buffered write-back state for this path flushes
		// before any new handle is born, so every new reader (or writer)
		// observes the flushed bytes — cross-handle read-your-writes.
		// The open proceeds regardless; a flush failure is recorded for
		// the next fsync on the path.
		if e.path != "" && f.pc.dirty[e.path] != nil {
			f.flushPath(e.path, func(err abi.Errno) {
				f.recordFlushErr(e.path, err)
				f.openResolved(e, p, flags, mode, wantsWrite, cb)
			})
			return
		}
		f.openResolved(e, p, flags, mode, wantsWrite, cb)
	})
}

// openResolved continues Open once the walk result is known and any
// write-back barrier has run.
func (f *FileSystem) openResolved(e walkEnt, p string, flags int, mode uint32, wantsWrite bool, cb func(FileHandle, abi.Errno)) {
	switch {
	case e.err == abi.OK:
		if flags&abi.O_DIRECTORY != 0 && !e.st.IsDir() {
			cb(nil, abi.ENOTDIR)
			return
		}
		if e.st.IsRegular() && !wantsWrite && f.cachesOn && cacheableBackend(e.backend) {
			b, rel := e.backend, e.rel
			ph := &pagedHandle{
				fs:    f,
				path:  e.path,
				st:    e.st,
				gen:   f.pc.gen(e.path),
				dedup: dedupableBackend(e.backend),
				open:  func(icb func(FileHandle, abi.Errno)) { b.Open(rel, flags, mode, icb) },
			}
			if b.ReadOnly() {
				// Nothing can unlink beneath a read-only backend, so
				// the backend open is safely deferred to the first
				// page miss — a fully cached hot file is reopened
				// with zero backend calls.
				cb(ph, abi.OK)
				return
			}
			// Mutable backend (overlay): open eagerly so the handle
			// keeps working if the path is unlinked afterwards.
			ph.ensureInner(func(_ FileHandle, err abi.Errno) {
				if err != abi.OK {
					cb(nil, err)
					return
				}
				cb(ph, abi.OK)
			})
			return
		}
		if wantsWrite {
			f.invalidatePath(e.path)
		}
		f.openAt(e, flags, mode, wantsWrite, cb)
	case e.err == abi.ENOENT && e.canCreate && flags&abi.O_CREAT != 0:
		if hadTrailingSlash(p) {
			// open("missing/", O_CREAT): only a directory could
			// satisfy the trailing slash; open cannot create one.
			cb(nil, abi.EISDIR)
			return
		}
		f.invalidateEntry(e.path, e.parent)
		f.openAt(e, flags, mode, true, cb)
	default:
		cb(nil, e.err)
	}
}

// openAt opens e's path on its backend and wraps the handle so writes
// keep invalidating the caches for the canonical path. Mutating opens
// (create/truncate/write) invalidate again on completion — the open may
// have been asynchronous, and a concurrent lookup could have re-cached
// pre-mutation state mid-flight. With write-back enabled, write-capable
// handles become writebackHandles: their writes buffer as dirty extents
// and coalesce into vectored backend flushes (writeback.go).
func (f *FileSystem) openAt(e walkEnt, flags int, mode uint32, mutates bool, cb func(FileHandle, abi.Errno)) {
	e.backend.Open(e.rel, flags, mode, func(h FileHandle, err abi.Errno) {
		if mutates {
			f.invalidateEntry(e.path, e.parent)
		}
		if err != abi.OK {
			cb(nil, err)
			return
		}
		if mutates && f.writeBack && f.cachesOn && writeBackableBackend(e.backend) {
			// The generation is captured after the invalidation above,
			// so the fresh handle is current.
			cb(&writebackHandle{fs: f, path: e.path, gen: f.pc.gen(e.path), inner: h}, abi.OK)
			return
		}
		cb(&invalHandle{FileHandle: h, fs: f, path: e.path}, abi.OK)
	})
}

// Readdir lists a directory, synthesizing entries for mount points at or
// below it — `ls /` shows /usr even when the only thing under /usr is a
// mount three levels down and no backend has the directory. Complete
// listings are cached in the dentry layer (keyed by canonical path) and
// invalidated by the same hooks every mutating operation already runs,
// so a stat storm's getdents — or fs.Glob on the public facade — never
// re-hits a backend while the directory is unchanged.
func (f *FileSystem) Readdir(p string, cb func([]abi.Dirent, abi.Errno)) {
	f.walk(p, walkOpts{follow: true}, func(e walkEnt) {
		if e.err != abi.OK {
			cb(nil, e.err)
			return
		}
		if !e.st.IsDir() {
			cb(nil, abi.ENOTDIR)
			return
		}
		dir := e.path
		if f.cachesOn {
			if ents, ok := f.dc.getDir(dir); ok {
				// Hand out a copy: callers may hold the slice across
				// later invalidations.
				cb(append([]abi.Dirent(nil), ents...), abi.OK)
				return
			}
		}
		e.backend.Readdir(e.rel, func(ents []abi.Dirent, err abi.Errno) {
			if err != abi.OK {
				// A synthetic mount ancestor lists nothing but nested
				// mounts; real backend failures (EIO...) still surface.
				if (err != abi.ENOENT && err != abi.ENOTDIR) || !f.mountAncestor(dir) {
					cb(nil, err)
					return
				}
				ents = nil
			}
			dirSlash := dir
			if dirSlash != "/" {
				dirSlash += "/"
			}
			seen := make(map[string]bool, len(ents))
			for _, d := range ents {
				seen[d.Name] = true
			}
			for _, m := range f.mounts {
				if m.prefix == "/" || !strings.HasPrefix(m.prefix, dirSlash) {
					continue
				}
				name := m.prefix[len(dirSlash):]
				if i := strings.IndexByte(name, '/'); i >= 0 {
					name = name[:i]
				}
				if name != "" && !seen[name] {
					ents = append(ents, abi.Dirent{Name: name, Type: abi.DT_DIR})
					seen[name] = true
				}
			}
			sort.Slice(ents, func(i, j int) bool { return ents[i].Name < ents[j].Name })
			if f.cachesOn {
				f.dc.putDir(dir, append([]abi.Dirent(nil), ents...))
			}
			cb(ents, abi.OK)
		})
	})
}

// Mkdir creates a directory.
func (f *FileSystem) Mkdir(p string, mode uint32, cb func(abi.Errno)) {
	f.walk(p, walkOpts{}, func(e walkEnt) {
		switch {
		case e.err == abi.OK && e.synthetic:
			// The directory exists only as a synthesized mount-point
			// ancestor: create it for real in the owning backend, so
			// entries can be created beneath it (MkdirAll depends on
			// this).
			f.invalidateEntry(e.path, e.parent)
			e.backend.Mkdir(e.rel, mode, func(err abi.Errno) {
				f.invalidateEntry(e.path, e.parent)
				cb(err)
			})
		case e.err == abi.OK:
			cb(abi.EEXIST)
		case e.err == abi.ENOENT && e.canCreate:
			f.invalidateEntry(e.path, e.parent)
			e.backend.Mkdir(e.rel, mode, func(err abi.Errno) {
				f.invalidateEntry(e.path, e.parent)
				cb(err)
			})
		default:
			cb(e.err)
		}
	})
}

// MkdirAll creates a directory and any missing parents.
func (f *FileSystem) MkdirAll(p string, mode uint32, cb func(abi.Errno)) {
	p = Clean(p)
	var step func(i int)
	parts := strings.Split(strings.TrimPrefix(p, "/"), "/")
	step = func(i int) {
		if i > len(parts) {
			cb(abi.OK)
			return
		}
		sub := "/" + strings.Join(parts[:i], "/")
		f.Mkdir(sub, mode, func(err abi.Errno) {
			if err != abi.OK && err != abi.EEXIST {
				cb(err)
				return
			}
			step(i + 1)
		})
	}
	if p == "/" {
		cb(abi.OK)
		return
	}
	step(1)
}

// Rmdir removes an empty directory.
//
// Like every mutating operation below, the caches are invalidated both
// before dispatch and again in the completion callback: a backend may
// complete asynchronously (overlay copy-up over the network), and a
// concurrent lookup mid-flight would otherwise re-cache pre-mutation
// state that nothing invalidates afterwards.
func (f *FileSystem) Rmdir(p string, cb func(abi.Errno)) {
	f.walk(p, walkOpts{}, func(e walkEnt) {
		if e.err != abi.OK {
			cb(e.err)
			return
		}
		f.invalidateTree(e.path, e.parent)
		e.backend.Rmdir(e.rel, func(err abi.Errno) {
			f.invalidateTree(e.path, e.parent)
			cb(err)
		})
	})
}

// Unlink removes a file or symlink.
func (f *FileSystem) Unlink(p string, cb func(abi.Errno)) {
	if hadTrailingSlash(p) {
		// unlink("p/") can never name a file.
		f.walk(p, walkOpts{}, func(e walkEnt) {
			if e.err != abi.OK {
				cb(e.err)
				return
			}
			cb(abi.EISDIR)
		})
		return
	}
	f.walk(p, walkOpts{}, func(e walkEnt) {
		if e.err != abi.OK {
			cb(e.err)
			return
		}
		f.invalidateEntry(e.path, e.parent)
		e.backend.Unlink(e.rel, func(err abi.Errno) {
			f.invalidateEntry(e.path, e.parent)
			cb(err)
		})
	})
}

// Rename moves a file within a single backend; cross-backend moves return
// EXDEV, as on Unix.
func (f *FileSystem) Rename(oldp, newp string, cb func(abi.Errno)) {
	f.walk(oldp, walkOpts{}, func(oe walkEnt) {
		if oe.err != abi.OK {
			cb(oe.err)
			return
		}
		f.walk(newp, walkOpts{}, func(ne walkEnt) {
			if ne.err != abi.OK && !ne.canCreate {
				cb(ne.err)
				return
			}
			if oe.backend != ne.backend {
				cb(abi.EXDEV)
				return
			}
			// Only a directory rename moves a subtree; file renames
			// need (and pay for) per-entry invalidation only. A dir on
			// either end (e.g. file replacing an empty dir) still takes
			// the tree path: entries below it may be cached.
			invalidate := func() {
				if oe.st.IsDir() || (ne.err == abi.OK && ne.st.IsDir()) {
					f.invalidateTree(oe.path, oe.parent)
					f.invalidateTree(ne.path, ne.parent)
				} else {
					f.invalidateEntry(oe.path, oe.parent)
					f.invalidateEntry(ne.path, ne.parent)
				}
			}
			invalidate()
			oe.backend.Rename(oe.rel, ne.rel, func(err abi.Errno) {
				invalidate()
				cb(err)
			})
		})
	})
}

// Readlink reads a symlink target.
func (f *FileSystem) Readlink(p string, cb func(string, abi.Errno)) {
	f.walk(p, walkOpts{}, func(e walkEnt) {
		if e.err != abi.OK {
			cb("", e.err)
			return
		}
		if !e.st.IsSymlink() {
			cb("", abi.EINVAL)
			return
		}
		e.backend.Readlink(e.rel, cb)
	})
}

// Symlink creates a symlink at linkp pointing to target.
func (f *FileSystem) Symlink(target, linkp string, cb func(abi.Errno)) {
	f.walk(linkp, walkOpts{}, func(e walkEnt) {
		if e.err == abi.OK {
			// Exists in the merged view (possibly only in an overlay's
			// lower layer, which the backend alone would not notice).
			cb(abi.EEXIST)
			return
		}
		if !e.canCreate {
			cb(e.err)
			return
		}
		f.invalidateEntry(e.path, e.parent)
		e.backend.Symlink(target, e.rel, func(err abi.Errno) {
			f.invalidateEntry(e.path, e.parent)
			cb(err)
		})
	})
}

// Utimes sets access/modification times.
func (f *FileSystem) Utimes(p string, atime, mtime int64, cb func(abi.Errno)) {
	f.walk(p, walkOpts{follow: true}, func(e walkEnt) {
		if e.err != abi.OK {
			cb(e.err)
			return
		}
		f.invalidatePath(e.path)
		e.backend.Utimes(e.rel, atime, mtime, func(err abi.Errno) {
			f.invalidatePath(e.path)
			cb(err)
		})
	})
}

// Access checks existence (permission bits are not enforced: Browsix
// relies on the browser sandbox instead of users, §3.1).
func (f *FileSystem) Access(p string, amode int, cb func(abi.Errno)) {
	f.Stat(p, func(st abi.Stat, err abi.Errno) { cb(err) })
}

// ReadFile slurps a whole file (convenience for the kernel and web app).
func (f *FileSystem) ReadFile(p string, cb func([]byte, abi.Errno)) {
	f.Open(p, abi.O_RDONLY, 0, func(h FileHandle, err abi.Errno) {
		if err != abi.OK {
			cb(nil, err)
			return
		}
		h.Stat(func(st abi.Stat, err abi.Errno) {
			if err != abi.OK {
				h.Close(func(abi.Errno) {})
				cb(nil, err)
				return
			}
			h.Pread(0, int(st.Size), func(data []byte, err abi.Errno) {
				h.Close(func(abi.Errno) {})
				cb(data, err)
			})
		})
	})
}

// WriteFile creates/truncates a file with the given contents.
func (f *FileSystem) WriteFile(p string, data []byte, mode uint32, cb func(abi.Errno)) {
	f.Open(p, abi.O_WRONLY|abi.O_CREAT|abi.O_TRUNC, mode, func(h FileHandle, err abi.Errno) {
		if err != abi.OK {
			cb(err)
			return
		}
		h.Pwrite(0, data, func(n int, err abi.Errno) {
			h.Close(func(abi.Errno) {})
			cb(err)
		})
	})
}

// ---------------------------------------------------------------------------
// invalHandle: a write-capable handle that keeps the caches honest.
// ---------------------------------------------------------------------------

// invalHandle wraps a backend handle so every mutation drops the cached
// dentry (attributes) and pages for the canonical path, even writes on
// descriptors that were opened read-only. Reads barrier on buffered
// write-back state for the path: another handle's completed writes are
// observable (POSIX read-after-write) even while they are only in the
// dirty extents.
type invalHandle struct {
	FileHandle
	fs   *FileSystem
	path string
}

func (h *invalHandle) Pread(off int64, n int, cb func([]byte, abi.Errno)) {
	if h.fs.pc.dirty[h.path] != nil {
		h.fs.flushPath(h.path, func(err abi.Errno) {
			h.fs.recordFlushErr(h.path, err)
			h.FileHandle.Pread(off, n, cb)
		})
		return
	}
	h.FileHandle.Pread(off, n, cb)
}

func (h *invalHandle) Preadv(off int64, lens []int, cb func([][]byte, abi.Errno)) {
	if h.fs.pc.dirty[h.path] != nil {
		h.fs.flushPath(h.path, func(err abi.Errno) {
			h.fs.recordFlushErr(h.path, err)
			h.FileHandle.Preadv(off, lens, cb)
		})
		return
	}
	h.FileHandle.Preadv(off, lens, cb)
}

func (h *invalHandle) Pwrite(off int64, data []byte, cb func(int, abi.Errno)) {
	h.fs.invalidatePath(h.path)
	h.FileHandle.Pwrite(off, data, func(n int, err abi.Errno) {
		h.fs.invalidatePath(h.path)
		cb(n, err)
	})
}

func (h *invalHandle) Pwritev(off int64, bufs [][]byte, cb func(int, abi.Errno)) {
	h.fs.invalidatePath(h.path)
	h.FileHandle.Pwritev(off, bufs, func(n int, err abi.Errno) {
		h.fs.invalidatePath(h.path)
		cb(n, err)
	})
}

func (h *invalHandle) Truncate(size int64, cb func(abi.Errno)) {
	h.fs.invalidatePath(h.path)
	h.FileHandle.Truncate(size, func(err abi.Errno) {
		h.fs.invalidatePath(h.path)
		cb(err)
	})
}

// ---------------------------------------------------------------------------
// Vectored fallbacks for backends whose natural representation is scalar.
// ---------------------------------------------------------------------------

// genericPreadv implements Preadv as one coalesced Pread (the fallback
// for handles with no cheaper representation).
func genericPreadv(h FileHandle, off int64, lens []int, cb func([][]byte, abi.Errno)) {
	total := 0
	for _, n := range lens {
		total += n
	}
	h.Pread(off, total, func(data []byte, err abi.Errno) {
		if err != abi.OK || len(data) == 0 {
			cb(nil, err)
			return
		}
		cb([][]byte{data}, abi.OK)
	})
}
