package browsix_test

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	browsix "repro"
	"repro/internal/abi"
	"repro/internal/fs"
	"repro/internal/posix"
	"repro/internal/rt"
	"repro/internal/tex"
)

// ---------------------------------------------------------------------------
// Exec by reference: spawn, fork and exec read the staged executable as a
// read-only view of the file system's bytes, never as a per-spawn copy.
// ---------------------------------------------------------------------------

// TestSpawnAllocatesLessThanArtifact: a spawn of a staged executable
// allocates less host memory than one copy of its artifact, so the
// kernel's exec path reads the file without copying it.
func TestSpawnAllocatesLessThanArtifact(t *testing.T) {
	in := browsix.Boot(browsix.Config{})
	browsix.InstallBase(in)
	echo := func() {
		if r := runCmd(t, in, "/usr/bin/echo hi"); r.Code != 0 || string(r.Stdout) != "hi\n" {
			t.Fatalf("echo: code %d stdout %q", r.Code, r.Stdout)
		}
	}
	echo() // warm the caches and the instance's own lazily built state
	const spawns = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < spawns; i++ {
		echo()
	}
	runtime.ReadMemStats(&after)
	perSpawn := (after.TotalAlloc - before.TotalAlloc) / spawns
	if artifact := uint64(rt.ArtifactSize(rt.NodeKind)); perSpawn >= artifact {
		t.Fatalf("a spawn allocates %d B, at least one %d B artifact copy", perSpawn, artifact)
	}
	t.Logf("%d B allocated per spawn (artifact %d B)", perSpawn, rt.ArtifactSize(rt.NodeKind))
}

// TestExecRewrittenExecutable: a guest that rewrites an executable it
// already ran and runs or execs it again gets the new image — both for
// an O_TRUNC rewrite (cp over it) and for a same-length in-place write —
// while the shared staged artifact stays untouched.
func TestExecRewrittenExecutable(t *testing.T) {
	in := browsix.Boot(browsix.Config{})
	browsix.InstallBase(in)
	artifact := posix.Executable("echo", string(rt.NodeKind), rt.ArtifactSize(rt.NodeKind))
	pristine := append([]byte(nil), artifact...)

	// O_TRUNC rewrite: echo runs, cp replaces it with pwd, and the shell
	// execs the path again.
	r := runCmd(t, in, "sh -c '/usr/bin/echo before; cp /usr/bin/pwd /usr/bin/echo; exec /usr/bin/echo after'")
	if r.Code != 0 || string(r.Stdout) != "before\n/\n" {
		t.Fatalf("rewrite then exec: code %d stdout %q stderr %q, want the echo then pwd's output", r.Code, r.Stdout, r.Stderr)
	}

	// In-place rewrite of a private copy: the first run takes a view of
	// /tmp/prog, then its header's program name changes from echo to
	// true without truncating the file.
	writeFile(t, in, "/tmp/prog", posix.Executable("echo", string(rt.NodeKind), rt.ArtifactSize(rt.NodeKind)))
	if r := runCmd(t, in, "/tmp/prog first"); string(r.Stdout) != "first\n" {
		t.Fatalf("/tmp/prog as echo: stdout %q", r.Stdout)
	}
	off := bytes.Index(pristine, []byte("program=echo")) + len("program=")
	overwriteAt(t, in, "/tmp/prog", int64(off), "true")
	if r := runCmd(t, in, "/tmp/prog second"); r.Code != 0 || len(r.Stdout) != 0 {
		t.Fatalf("/tmp/prog rewritten to true: code %d stdout %q", r.Code, r.Stdout)
	}
	if !bytes.Equal(artifact, pristine) {
		t.Fatal("the shared echo artifact was modified")
	}
}

// overwriteAt writes data at off in p without truncating it.
func overwriteAt(t *testing.T, in *browsix.Instance, p string, off int64, data string) {
	t.Helper()
	werr, done := abi.Errno(-1), false
	in.Main(func() {
		in.VFS.Open(p, abi.O_RDWR, 0, func(h fs.FileHandle, err abi.Errno) {
			if err != abi.OK {
				werr, done = err, true
				return
			}
			h.Pwrite(off, []byte(data), func(_ int, err abi.Errno) {
				h.Close(func(cerr abi.Errno) {
					if err == abi.OK {
						err = cerr
					}
					werr, done = err, true
				})
			})
		})
	})
	if !in.RunUntil(func() bool { return done }) || werr != abi.OK {
		t.Fatalf("overwrite %s: %v", p, werr)
	}
}

// TestLatexBuildsRetainNoHeap: repeated LaTeX builds on one instance do
// not grow the live host heap. Every build runs pdflatex and bibtex on
// the sync transport, each with a 1 MB heap; a futex-table entry left
// behind by an exited process would keep its worker, task and heap
// alive for the life of the instance.
func TestLatexBuildsRetainNoHeap(t *testing.T) {
	in := browsix.Boot(browsix.Config{})
	browsix.InstallBase(in)
	docTex, docBib := tex.SampleDocument()
	browsix.InstallTexProject(in, tex.SmallTree(), browsix.TexSync, docTex, docBib)
	build := func(i int) {
		// A changed source makes make rerun pdflatex, bibtex, pdflatex x2.
		writeFile(t, in, "/proj/main.tex", []byte(strings.Replace(docTex, "Browsix bridges", fmt.Sprintf("Build %d: Browsix bridges", i), 1)))
		if code, log := in.BuildPDF(); code != 0 {
			t.Fatalf("build %d failed (%d):\n%s", i, code, log)
		}
	}
	// Warm-up builds: caches, the page-pool arena and httpfs fetches.
	build(0)
	build(1)
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const builds = 10
	before := liveHeap()
	for i := 2; i < 2+builds; i++ {
		build(i)
	}
	after := liveHeap()
	runtime.KeepAlive(in)
	var perBuild float64
	if after > before {
		perBuild = float64(after-before) / builds
	}
	if perBuild >= 1<<20 {
		t.Fatalf("live heap grew %.2f MB per build (%d -> %d B)", perBuild/(1<<20), before, after)
	}
	t.Logf("live heap growth %.0f B per build", perBuild)
}
