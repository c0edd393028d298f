package browsix_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	browsix "repro"
	"repro/internal/tex"
)

// TestLatexBuildAllocBudget: a warm LaTeX build on the sync transport
// allocates under 6 MB of host memory. The guest's hot path reads into
// reused buffers, each exited process's heap is reused by the next
// one, and the page-pool arena grows by chunks as pages are cached
// instead of being allocated whole per instance.
func TestLatexBuildAllocBudget(t *testing.T) {
	in := browsix.Boot(browsix.Config{})
	browsix.InstallBase(in)
	docTex, docBib := tex.SampleDocument()
	browsix.InstallTexProject(in, tex.DefaultTree(), browsix.TexSync, docTex, docBib)
	build := func(i int) {
		// A changed source makes make rerun pdflatex, bibtex, pdflatex x2.
		writeFile(t, in, "/proj/main.tex", []byte(strings.Replace(docTex, "Browsix bridges", fmt.Sprintf("Build %d: Browsix bridges", i), 1)))
		if code, log := in.BuildPDF(); code != 0 {
			t.Fatalf("build %d failed (%d):\n%s", i, code, log)
		}
	}
	// Warm-up builds: httpfs fetches, caches, free heaps.
	build(0)
	build(1)
	const builds = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 2; i < 2+builds; i++ {
		build(i)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(in)
	perBuild := float64(after.TotalAlloc-before.TotalAlloc) / builds / (1 << 20)
	if perBuild >= 6 {
		t.Fatalf("a warm build allocates %.2f MB, budget 6 MB", perBuild)
	}
	t.Logf("%.2f MB allocated per warm build", perBuild)
}
