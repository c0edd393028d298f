package main

import (
	"crypto/sha1"
	"fmt"
	"math/rand"
	"strings"

	browsix "repro"
	"repro/internal/fs"
	"repro/internal/tex"
)

// The latex workload: the paper's headline case. One resident instance
// with the LaTeX editor staged (TeX Live over httpfs, pdflatex on the
// synchronous transport, make on the Emterpreter); a closed-loop client
// edits the document and presses "Build PDF". The first build is cold.

const (
	latexVirtOps  = 100 // builds whose virtual latency is reported
	latexMinOps   = 200 // minimum timed builds: the host tail is p95
	latexReplay   = 2   // builds each replay instance runs (cold + warm)
	latexPerSec   = 40  // timed builds per measuring second
	latexVariants = 8   // seeded versions of main.tex
	latexBibEvery = 5   // every fifth build also edits main.bib
	// latexPerInstance bounds the builds one instance serves (see
	// resident); its cold builds are a tenth of the reported ones, all
	// beyond the p90 tail.
	latexPerInstance = 10
	// latexLimitMs is the build time the paper calls "in seconds".
	latexLimitMs = 3000.0
)

// latexInputs are the seeded document versions.
type latexInputs struct {
	tex []string    // main.tex variants
	bib [2]string   // main.bib: the sample, and the sample plus an uncited entry
	pdf [][2][]byte // expected PDF sha1 per (tex, bib) variant, learned on first build
}

func genLatexInputs(seed int64) *latexInputs {
	rng := rand.New(rand.NewSource(seed ^ 0x7e4))
	docTex, docBib := tex.SampleDocument()
	li := &latexInputs{pdf: make([][2][]byte, latexVariants)}
	for v := 0; v < latexVariants; v++ {
		words := make([]string, 8+rng.Intn(9))
		for j := range words {
			words[j] = shellWords[rng.Intn(len(shellWords))]
		}
		edit := fmt.Sprintf("Revision %d: %s.\n", v, strings.Join(words, " "))
		li.tex = append(li.tex, strings.Replace(docTex, "\\bibliography{", edit+"\\bibliography{", 1))
	}
	li.bib[0] = docBib
	li.bib[1] = docBib + fmt.Sprintf("@misc{extra%d,\n  author = {%s, %s},\n  title  = {%s},\n  year   = {%d},\n}\n",
		rng.Intn(1000), shellWords[rng.Intn(len(shellWords))], shellWords[rng.Intn(len(shellWords))],
		shellWords[rng.Intn(len(shellWords))], 1990+rng.Intn(30))
	return li
}

// latexGen is the seeded edit sequence.
type latexGen struct {
	rng      *rand.Rand
	tex, bib int
}

func newLatexGen(seed int64) *latexGen {
	return &latexGen{rng: rand.New(rand.NewSource(seed ^ 0xed17)), tex: -1}
}

// next picks build i's edit: always a different main.tex version, and
// every latexBibEvery builds the other main.bib.
func (g *latexGen) next(i int) (texV, bibV int, bibChanged bool) {
	v := g.rng.Intn(latexVariants - 1)
	if v >= g.tex && g.tex >= 0 {
		v++
	}
	g.tex = v
	if i%latexBibEvery == latexBibEvery-1 {
		g.bib = 1 - g.bib
		bibChanged = true
	}
	return g.tex, g.bib, bibChanged
}

// build applies one edit and builds, checking exit status, the PDF's
// shape and that identical sources give identical PDF bytes.
func (li *latexInputs) build(b *bench, in *browsix.Instance, id int, g *latexGen, i int) (int64, string, []byte) {
	texV, bibV, bibChanged := g.next(i)
	v0 := in.Now()
	b.tr.do("edit", "op", id, 0, in, func() {
		must(in.FS().WriteFile("proj/main.tex", []byte(li.tex[texV]), 0o644))
		if bibChanged {
			must(in.FS().WriteFile("proj/main.bib", []byte(li.bib[bibV]), 0o644))
		}
	})
	var code int
	var log string
	b.tr.do("build", "op", id, 0, in, func() { code, log = in.BuildPDF() })
	virt := in.Now() - v0
	if code != 0 {
		return virt, fmt.Sprintf("build %d: make exit %d: %s", id, code, clip(log)), nil
	}
	var pdf []byte
	var err error
	b.tr.do("readpdf", "op", id, 0, in, func() { pdf, err = in.FS().ReadFile("proj/main.pdf") })
	if err != nil {
		return virt, fmt.Sprintf("build %d: read main.pdf: %v", id, err), nil
	}
	marker := fmt.Sprintf("Revision %d:", texV)
	if !strings.HasPrefix(string(pdf), "%PDF-1.5") || !strings.Contains(string(pdf), marker) ||
		!strings.Contains(string(pdf), "Powers, Bobby") {
		return virt, fmt.Sprintf("build %d: main.pdf lacks its header, %q or the bibliography", id, marker), nil
	}
	sum := sha1.Sum(pdf)
	if want := li.pdf[texV][bibV]; want == nil {
		li.pdf[texV][bibV] = sum[:]
	} else if string(want) != string(sum[:]) {
		return virt, fmt.Sprintf("build %d: main.pdf for source (%d,%d) differs from its first build", id, texV, bibV), nil
	}
	return virt, "", pdf
}

func runLatex(b *bench) {
	inputs := genLatexInputs(b.seed)
	docTex, docBib := tex.SampleDocument()
	var httpfs *fs.HTTPFS // the latest instance's
	b.runClosedLoop(closedLoop{
		boot: func() *browsix.Instance { return browsix.Boot(browsix.Config{}) },
		stage: func(in *browsix.Instance) {
			browsix.InstallBase(in)
			httpfs = browsix.InstallTexProject(in, tex.DefaultTree(), browsix.TexSync, docTex, docBib)
		},
		newOps: func() func(*browsix.Instance, int, int) (int64, string, []byte) {
			g := newLatexGen(b.seed)
			return func(in *browsix.Instance, id, i int) (int64, string, []byte) { return inputs.build(b, in, id, g, i) }
		},
		replay: latexReplay, virtOps: latexVirtOps, minOps: latexMinOps, perSec: latexPerSec,
		perInstance: latexPerInstance, limitMs: latexLimitMs,
	})
	// Every instance fetches the same files, on its cold build.
	b.layer["fs.httpfs_fetches"] = float64(httpfs.FetchCount)
	b.layer["fs.httpfs_kb"] = float64(httpfs.BytesFetched) / 1024
}
