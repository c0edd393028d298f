package tex

import (
	"fmt"
	"strings"
	"sync"
)

// TreeConfig scales the synthetic TeX Live distribution. The real thing
// is "several gigabytes ... over 60,000 individual files" (§2.2); a
// typical paper touches only a few megabytes of it, which is exactly the
// property the lazy HTTP file system exploits. Tests use a small tree;
// the benchmarks a bigger one.
type TreeConfig struct {
	Classes    int // .cls files
	Packages   int // .sty files (chained dependencies)
	Fonts      int // .tfm files
	FontSize   int // bytes per font file
	PkgSize    int // bytes per package body
	ExtraFiles int // unrelated distribution files (never fetched)
	ExtraSize  int
}

// DefaultTree is the benchmark-scale distribution.
func DefaultTree() TreeConfig {
	return TreeConfig{
		Classes:    8,
		Packages:   120,
		Fonts:      60,
		FontSize:   96 * 1024,
		PkgSize:    24 * 1024,
		ExtraFiles: 1200,
		ExtraSize:  48 * 1024,
	}
}

// SmallTree keeps unit tests fast.
func SmallTree() TreeConfig {
	return TreeConfig{Classes: 2, Packages: 10, Fonts: 6, FontSize: 2048, PkgSize: 512, ExtraFiles: 20, ExtraSize: 256}
}

// BuildTree generates the distribution as path->bytes (paths relative to
// the tree root, starting with "/"). Package i requires package i+1 for
// the first few, giving documents a dependency cone; article.cls loads
// three fonts via \LoadFont.
//
// The tree is built once per host process and config, and the same map
// is returned to every caller (a fleet's tenants share one distribution,
// as they share one TeX Live mirror). Callers must never modify the map
// or the bytes it holds.
func BuildTree(cfg TreeConfig) map[string][]byte {
	trees.Lock()
	defer trees.Unlock()
	files, ok := trees.m[cfg]
	if !ok {
		files = buildTree(cfg)
		trees.m[cfg] = files
	}
	return files
}

// trees memoises BuildTree; fleet workers install TeX projects
// concurrently.
var trees = struct {
	sync.Mutex
	m map[TreeConfig]map[string][]byte
}{m: map[TreeConfig]map[string][]byte{}}

func buildTree(cfg TreeConfig) map[string][]byte {
	files := map[string][]byte{}
	pad := func(n int) string {
		if n <= 0 {
			return ""
		}
		return strings.Repeat("% tex-live filler\n", n/18+1)[:n]
	}
	for i := 0; i < cfg.Classes; i++ {
		name := className(i)
		body := fmt.Sprintf("%% class %s\n\\LoadFont{cmr10}\n\\LoadFont{cmbx12}\n\\LoadFont{cmti10}\n\\RequirePackage{%s}\n%s",
			name, pkgName(0), pad(cfg.PkgSize))
		files["/cls/"+name+".cls"] = []byte(body)
	}
	for i := 0; i < cfg.Packages; i++ {
		dep := ""
		// The first 8 packages chain onto the next, deeper dependencies.
		if i < 8 && i+1 < cfg.Packages {
			dep = fmt.Sprintf("\\RequirePackage{%s}\n", pkgName(i+1))
		}
		body := fmt.Sprintf("%% package %s\n%s%s", pkgName(i), dep, pad(cfg.PkgSize))
		files["/sty/"+pkgName(i)+".sty"] = []byte(body)
	}
	fontNames := []string{"cmr10", "cmbx12", "cmti10", "cmtt10", "cmss10", "cmmi10"}
	for i := 0; i < cfg.Fonts; i++ {
		name := ""
		if i < len(fontNames) {
			name = fontNames[i]
		} else {
			name = fmt.Sprintf("font%03d", i)
		}
		body := make([]byte, cfg.FontSize)
		for j := range body {
			body[j] = byte(i + j)
		}
		files["/fonts/"+name+".tfm"] = body
	}
	for i := 0; i < cfg.ExtraFiles; i++ {
		files[fmt.Sprintf("/doc/other%04d.txt", i)] = []byte(pad(cfg.ExtraSize))
	}
	return files
}

func className(i int) string {
	names := []string{"article", "report", "book", "letter", "beamer", "memoir", "acmart", "ieeetran"}
	if i < len(names) {
		return names[i]
	}
	return fmt.Sprintf("class%02d", i)
}

func pkgName(i int) string {
	names := []string{"graphicx", "amsmath", "hyperref", "xcolor", "geometry", "booktabs",
		"listings", "tikz", "fontenc", "inputenc", "babel", "url"}
	if i < len(names) {
		return names[i]
	}
	return fmt.Sprintf("pkg%03d", i)
}

// SampleDocument is the one-page-paper-with-bibliography workload of
// §5.2 ("a single page document with a bibliography").
func SampleDocument() (tex, bib string) {
	tex = `\documentclass{article}
\usepackage{graphicx}
\usepackage{amsmath, hyperref}
\bibliographystyle{plain}
Browsix bridges the gap between Unix and the browser \cite{browsix}.
It builds on BrowserFS from Doppio \cite{doppio} and compiles C programs
with Emscripten \cite{emscripten}. ` + strings.Repeat("Unix in the browser enables serverless PDF generation from off-the-shelf parts. ", 24) + `
\bibliography{main}
`
	bib = `@inproceedings{browsix,
  author = {Powers, Bobby and Vilk, John and Berger, Emery D.},
  title  = {Browsix: Bridging the Gap Between Unix and the Browser},
  year   = {2017},
}
@inproceedings{doppio,
  author = {Vilk, John and Berger, Emery D.},
  title  = {Doppio: Breaking the Browser Language Barrier},
  year   = {2014},
}
@inproceedings{emscripten,
  author = "Zakai, Alon",
  title  = "Emscripten: an LLVM-to-JavaScript Compiler",
  year   = 2011,
}
`
	return tex, bib
}

// ProjectMakefile is the LaTeX project's Makefile: the classic
// pdflatex/bibtex/pdflatex/pdflatex dance, driven by GNU Make (which
// forks to run each recipe).
func ProjectMakefile() string {
	return `# LaTeX build, as in the Browsix editor case study
DOC = main
TEX = pdflatex

all: $(DOC).pdf

$(DOC).pdf: $(DOC).tex $(DOC).bbl
	$(TEX) $(DOC).tex
	$(TEX) $(DOC).tex

$(DOC).bbl: $(DOC).bib $(DOC).aux
	bibtex $(DOC)

$(DOC).aux: $(DOC).tex
	$(TEX) $(DOC).tex

.PHONY: all clean
clean:
	rm -f $(DOC).pdf $(DOC).aux $(DOC).bbl $(DOC).log $(DOC).blg
`
}
