// Package tex implements the pdflatex and bibtex workloads of the LaTeX
// editor case study (§2): C programs from TeX Live, compiled in the paper
// with Browsix-enhanced Emscripten. The reproduction preserves the whole
// observable file-system protocol —
//
//   - pdflatex reads the .tex source, resolves \documentclass /
//     \usepackage / fonts against a TeX tree (lazily fetched over HTTP via
//     the overlay file system), consumes .bbl if present, and writes .aux,
//     .log and .pdf;
//   - bibtex reads .aux citations, parses the .bib database, and writes
//     .bbl/.blg;
//   - packages \RequirePackage each other, so one document pulls a
//     dependency cone out of the (multi-gigabyte in spirit) distribution.
//
// CPU cost is charged per byte processed, calibrated so a native build of
// a one-page paper lands near the paper's ~100 ms.
package tex

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"repro/internal/abi"
	"repro/internal/posix"
)

func init() {
	posix.Register(&posix.Program{Name: "pdflatex", Main: pdflatexMain})
	posix.Register(&posix.Program{Name: "bibtex", Main: bibtexMain})
}

// TexRoot is where the TeX distribution is mounted.
const TexRoot = "/usr/local/texlive"

// CPU model (native ns; the runtime multiplier does the rest).
const (
	texStartupNs  = 70_000_000 // format loading, ini processing
	texPerByteNs  = 220        // macro expansion + paragraph building per source byte
	texPerPkgNs   = 900_000    // per package load
	fontPerByteNs = 6          // font metric parsing
	pdfPerByteNs  = 35         // PDF content generation
	bibPerByteNs  = 160        // .bib parsing
)

// ---------------------------------------------------------------------------
// pdflatex
// ---------------------------------------------------------------------------

func pdflatexMain(p posix.Proc) int {
	var job string
	for _, a := range p.Args()[1:] {
		if strings.HasPrefix(a, "-") {
			continue // -interaction=... etc.
		}
		job = a
	}
	if job == "" {
		return texFail(p, "pdflatex", "no input file")
	}
	base := strings.TrimSuffix(job, ".tex")
	rd := &texReader{p: p}
	src, err := rd.read(base + ".tex")
	if err != abi.OK {
		return texFail(p, "pdflatex", "%s.tex: %v", base, err)
	}
	p.CPU(texStartupNs)
	p.CPU(int64(len(src)) * texPerByteNs)

	var log strings.Builder
	fmt.Fprintf(&log, "This is pdfTeX (Browsix reproduction)\n(%s.tex\n", base)

	doc := parseTex(string(src))

	// Load the class and packages (transitively), reading each file from
	// the TeX tree — these reads are what lazily pull files over HTTP.
	ld := &loader{texReader: rd, loaded: map[string]bool{}, log: &log}
	if doc.class != "" {
		ld.load("cls/" + doc.class + ".cls")
	}
	for _, pkg := range doc.packages {
		ld.load("sty/" + pkg + ".sty")
	}
	for _, font := range doc.fonts {
		ld.load("fonts/" + font + ".tfm")
	}
	loadOrder, missing := ld.order, ld.missing
	if len(missing) > 0 {
		fmt.Fprintf(&log, "! LaTeX Error: File `%s' not found.\n", missing[0])
		posix.WriteString(p, abi.Stderr, "! LaTeX Error: File `"+missing[0]+"' not found.\n")
		posix.WriteFile(p, base+".log", []byte(log.String()), 0o644)
		return 1
	}

	// Previous aux content decides the "rerun" warning.
	oldAuxBytes, _ := rd.read(base + ".aux")
	oldAux := string(oldAuxBytes)

	// Bibliography: consume the .bbl produced by bibtex, if present.
	bblBytes, bblErr := rd.read(base + ".bbl")
	bbl := string(bblBytes)
	undefined := false
	if len(doc.cites) > 0 && bblErr != abi.OK {
		undefined = true
		fmt.Fprintf(&log, "LaTeX Warning: Citation(s) undefined.\n")
	}

	// Write the .aux file: citations and bibliography directives.
	var aux strings.Builder
	aux.WriteString("\\relax\n")
	for _, c := range doc.cites {
		fmt.Fprintf(&aux, "\\citation{%s}\n", c)
	}
	if doc.bibstyle != "" {
		fmt.Fprintf(&aux, "\\bibstyle{%s}\n", doc.bibstyle)
	}
	if doc.bibdata != "" {
		fmt.Fprintf(&aux, "\\bibdata{%s}\n", doc.bibdata)
	}
	// Rewrite the .aux only when its content changed — otherwise the
	// pdflatex/bibtex Makefile dance never reaches a fixed point.
	if oldAux != aux.String() {
		if err := posix.WriteFile(p, base+".aux", []byte(aux.String()), 0o644); err != abi.OK {
			return texFail(p, "pdflatex", "%s.aux: %v", base, err)
		}
	}

	// Typeset: build the PDF bytes.
	pdf := renderPDF(doc, bbl, loadOrder)
	p.CPU(int64(len(pdf)) * pdfPerByteNs)
	if err := posix.WriteFile(p, base+".pdf", pdf, 0o644); err != abi.OK {
		return texFail(p, "pdflatex", "%s.pdf: %v", base, err)
	}

	pages := doc.pages()
	fmt.Fprintf(&log, "Output written on %s.pdf (%d page(s), %d bytes).\n", base, pages, len(pdf))
	if oldAux != aux.String() || undefined {
		fmt.Fprintf(&log, "LaTeX Warning: Label(s) may have changed. Rerun to get cross-references right.\n")
	}
	posix.WriteFile(p, base+".log", []byte(log.String()), 0o644)
	posix.Fprintf(p, abi.Stdout, "Output written on %s.pdf (%d page(s), %d bytes).\n", base, pages, len(pdf))
	return 0
}

// texReader reads whole files into one buffer it reuses: each read's
// result is valid until the next read.
type texReader struct {
	p   posix.Proc
	buf []byte
}

func (rd *texReader) read(path string) ([]byte, abi.Errno) {
	var err abi.Errno
	rd.buf, err = posix.ReadFileInto(rd.p, path, rd.buf[:0])
	return rd.buf, err
}

// loader loads the class, packages and fonts a document needs from the
// TeX tree, following the \RequirePackage and \LoadFont lines inside
// .sty/.cls files (transitive dependencies), depth first.
type loader struct {
	*texReader
	loaded  map[string]bool
	order   []string // resources loaded, in load order
	missing []string
	log     *strings.Builder
	deps    []string // dependency stack: each load's deps sit above its caller's
}

// load reads one resource, then loads the dependencies it names in the
// order their lines appear. They are collected before any is loaded,
// because loading one reuses the read buffer.
func (ld *loader) load(rel string) {
	if ld.loaded[rel] {
		return
	}
	ld.loaded[rel] = true
	path := TexRoot + "/" + rel
	data, err := ld.read(path)
	if err != abi.OK {
		ld.missing = append(ld.missing, rel)
		return
	}
	ld.order = append(ld.order, rel)
	fmt.Fprintf(ld.log, "(%s)\n", path)
	if strings.HasSuffix(rel, ".tfm") {
		ld.p.CPU(int64(len(data)) * fontPerByteNs)
		return
	}
	ld.p.CPU(texPerPkgNs + int64(len(data))*20)
	first := len(ld.deps)
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if dep, ok := cutMacroBytes(line, "\\RequirePackage{"); ok {
			ld.deps = append(ld.deps, "sty/"+string(dep)+".sty")
		}
		if font, ok := cutMacroBytes(line, "\\LoadFont{"); ok {
			ld.deps = append(ld.deps, "fonts/"+string(font)+".tfm")
		}
	}
	last := len(ld.deps)
	for i := first; i < last; i++ {
		ld.load(ld.deps[i])
	}
	ld.deps = ld.deps[:first]
}

// texDoc is the parsed document structure.
type texDoc struct {
	class    string
	packages []string
	fonts    []string
	cites    []string
	bibstyle string
	bibdata  string
	body     string
	words    int
}

func (d *texDoc) pages() int {
	pages := d.words/450 + 1
	return pages
}

// parseTex scans for the macros the workload honours.
func parseTex(src string) *texDoc {
	d := &texDoc{}
	seenCite := map[string]bool{}
	var body strings.Builder
	for _, line := range strings.Split(src, "\n") {
		trimmed := strings.TrimSpace(line)
		if v, ok := cutMacro(trimmed, "\\documentclass{"); ok {
			d.class = v
			continue
		}
		if v, ok := cutMacro(trimmed, "\\usepackage{"); ok {
			for _, pkg := range strings.Split(v, ",") {
				d.packages = append(d.packages, strings.TrimSpace(pkg))
			}
			continue
		}
		if v, ok := cutMacro(trimmed, "\\font{"); ok {
			d.fonts = append(d.fonts, v)
			continue
		}
		if v, ok := cutMacro(trimmed, "\\bibliographystyle{"); ok {
			d.bibstyle = v
			continue
		}
		if v, ok := cutMacro(trimmed, "\\bibliography{"); ok {
			d.bibdata = v
			continue
		}
		// \cite can appear mid-line, repeatedly.
		rest := line
		for {
			i := strings.Index(rest, "\\cite{")
			if i < 0 {
				break
			}
			rest = rest[i+len("\\cite{"):]
			j := strings.IndexByte(rest, '}')
			if j < 0 {
				break
			}
			for _, key := range strings.Split(rest[:j], ",") {
				key = strings.TrimSpace(key)
				if !seenCite[key] {
					seenCite[key] = true
					d.cites = append(d.cites, key)
				}
			}
			rest = rest[j+1:]
		}
		body.WriteString(line)
		body.WriteByte('\n')
	}
	d.body = body.String()
	d.words = len(strings.Fields(d.body))
	// Default fonts come with the class.
	if d.class != "" && len(d.fonts) == 0 {
		d.fonts = []string{"cmr10", "cmbx12", "cmti10"}
	}
	return d
}

func cutMacro(line, prefix string) (string, bool) {
	if !strings.HasPrefix(line, prefix) {
		return "", false
	}
	rest := line[len(prefix):]
	if i := strings.IndexByte(rest, '}'); i >= 0 {
		return rest[:i], true
	}
	return "", false
}

// cutMacroBytes is cutMacro over a line of a read buffer.
func cutMacroBytes(line []byte, prefix string) ([]byte, bool) {
	if len(line) < len(prefix) || string(line[:len(prefix)]) != prefix {
		return nil, false
	}
	rest := line[len(prefix):]
	if i := bytes.IndexByte(rest, '}'); i >= 0 {
		return rest[:i], true
	}
	return nil, false
}

// renderPDF produces structurally plausible PDF bytes whose size scales
// with the document.
func renderPDF(d *texDoc, bbl string, resources []string) []byte {
	var sb strings.Builder
	sb.WriteString("%PDF-1.5\n")
	sb.WriteString("1 0 obj << /Type /Catalog /Pages 2 0 R >> endobj\n")
	fmt.Fprintf(&sb, "2 0 obj << /Type /Pages /Count %d >> endobj\n", d.pages())
	fmt.Fprintf(&sb, "%% class=%s packages=%d resources=%d\n", d.class, len(d.packages), len(resources))
	sb.WriteString("3 0 obj << /Length ")
	content := d.body + bbl
	fmt.Fprintf(&sb, "%d >> stream\n", len(content))
	sb.WriteString(content)
	sb.WriteString("\nendstream endobj\ntrailer << /Root 1 0 R >>\n%%EOF\n")
	return []byte(sb.String())
}

func texFail(p posix.Proc, tool, format string, args ...any) int {
	posix.Fprintf(p, abi.Stderr, tool+": "+format+"\n", args...)
	return 1
}

// ---------------------------------------------------------------------------
// bibtex
// ---------------------------------------------------------------------------

func bibtexMain(p posix.Proc) int {
	args := p.Args()[1:]
	if len(args) == 0 {
		return texFail(p, "bibtex", "no aux file")
	}
	base := strings.TrimSuffix(args[len(args)-1], ".aux")
	rd := &texReader{p: p}
	aux, err := rd.read(base + ".aux")
	if err != abi.OK {
		return texFail(p, "bibtex", "%s.aux: %v", base, err)
	}
	var cites []string
	bibdata := ""
	style := "plain"
	for _, line := range strings.Split(string(aux), "\n") {
		if v, ok := cutMacro(line, "\\citation{"); ok {
			cites = append(cites, v)
		}
		if v, ok := cutMacro(line, "\\bibdata{"); ok {
			bibdata = v
		}
		if v, ok := cutMacro(line, "\\bibstyle{"); ok {
			style = v
		}
	}
	var blg strings.Builder
	fmt.Fprintf(&blg, "This is BibTeX (Browsix reproduction)\nThe style file: %s.bst\n", style)
	if bibdata == "" {
		blg.WriteString("I found no \\bibdata command\n")
		posix.WriteFile(p, base+".blg", []byte(blg.String()), 0o644)
		return 2
	}
	bib, err := rd.read(bibdata + ".bib")
	if err != abi.OK {
		return texFail(p, "bibtex", "%s.bib: %v", bibdata, err)
	}
	p.CPU(int64(len(bib)) * bibPerByteNs)
	entries := ParseBib(string(bib))

	var bbl strings.Builder
	fmt.Fprintf(&bbl, "\\begin{thebibliography}{%d}\n", len(cites))
	sort.Strings(cites)
	warnings := 0
	for _, key := range cites {
		e, ok := entries[key]
		if !ok {
			fmt.Fprintf(&blg, "Warning--I didn't find a database entry for \"%s\"\n", key)
			warnings++
			continue
		}
		fmt.Fprintf(&bbl, "\\bibitem{%s}\n%s. %s. %s.\n", key,
			orUnknown(e.Fields["author"]), orUnknown(e.Fields["title"]), orUnknown(e.Fields["year"]))
	}
	bbl.WriteString("\\end{thebibliography}\n")
	if err := posix.WriteFile(p, base+".bbl", []byte(bbl.String()), 0o644); err != abi.OK {
		return texFail(p, "bibtex", "%s.bbl: %v", base, err)
	}
	fmt.Fprintf(&blg, "(There were %d warnings)\n", warnings)
	posix.WriteFile(p, base+".blg", []byte(blg.String()), 0o644)
	if warnings > 0 {
		posix.Fprintf(p, abi.Stdout, "(There were %d warnings)\n", warnings)
	}
	return 0
}

func orUnknown(s string) string {
	if s == "" {
		return "Unknown"
	}
	return s
}

// BibEntry is one parsed @entry.
type BibEntry struct {
	Type   string
	Key    string
	Fields map[string]string
}

// ParseBib parses a BibTeX database: @type{key, field = {value}, ...}.
// It is a real (if forgiving) parser: braces nest, quotes work, unknown
// syntax is skipped.
func ParseBib(src string) map[string]BibEntry {
	out := map[string]BibEntry{}
	i := 0
	for i < len(src) {
		at := strings.IndexByte(src[i:], '@')
		if at < 0 {
			break
		}
		i += at + 1
		// type
		j := i
		for j < len(src) && src[j] != '{' && src[j] != '(' {
			j++
		}
		if j >= len(src) {
			break
		}
		etype := strings.ToLower(strings.TrimSpace(src[i:j]))
		i = j + 1
		// key
		j = i
		for j < len(src) && src[j] != ',' && src[j] != '}' {
			j++
		}
		if j >= len(src) {
			break
		}
		key := strings.TrimSpace(src[i:j])
		entry := BibEntry{Type: etype, Key: key, Fields: map[string]string{}}
		i = j
		// fields
		for i < len(src) && src[i] == ',' {
			i++
			// name
			j = i
			for j < len(src) && src[j] != '=' && src[j] != '}' {
				j++
			}
			if j >= len(src) || src[j] == '}' {
				i = j
				break
			}
			name := strings.ToLower(strings.TrimSpace(src[i:j]))
			i = j + 1
			// value
			for i < len(src) && (src[i] == ' ' || src[i] == '\t' || src[i] == '\n') {
				i++
			}
			if i >= len(src) {
				break
			}
			var value string
			switch src[i] {
			case '{':
				depth := 0
				j = i
				for ; j < len(src); j++ {
					if src[j] == '{' {
						depth++
					}
					if src[j] == '}' {
						depth--
						if depth == 0 {
							break
						}
					}
				}
				value = src[i+1 : j]
				i = j + 1
			case '"':
				j = i + 1
				for j < len(src) && src[j] != '"' {
					j++
				}
				value = src[i+1 : j]
				i = j + 1
			default:
				j = i
				for j < len(src) && src[j] != ',' && src[j] != '}' {
					j++
				}
				value = strings.TrimSpace(src[i:j])
				i = j
			}
			entry.Fields[name] = value
			// skip trailing whitespace
			for i < len(src) && (src[i] == ' ' || src[i] == '\t' || src[i] == '\n') {
				i++
			}
		}
		if i < len(src) && src[i] == '}' {
			i++
		}
		if key != "" && etype != "comment" && etype != "string" {
			out[key] = entry
		}
	}
	return out
}
