package main

import (
	"bytes"
	"crypto/sha1"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	browsix "repro"
)

// The shell workload: a resident instance, one closed-loop client
// running a seeded mix of Fig 9-style commands over seed-generated
// files. Every command is checked against an answer computed here with
// the Go standard library from the same generated bytes.

const (
	shellFiles   = 16  // /data/f00 .. /data/f15, 4 KiB to 1 MiB
	shellSlots   = 8   // /tmp/o0 .. /tmp/o7, written and read by commands
	shellVirtOps = 500 // ops whose virtual latency is reported; also the minimum timed ops
	shellReplay  = 8   // ops each replay instance runs to check determinism
	shellPerSec  = 70  // timed ops per measuring second
	// shellPerInstance bounds the ops one instance serves (see resident).
	shellPerInstance = 50
	// shellLimitMs is the virtual latency a terminal user notices.
	shellLimitMs = 250.0
	// shellColdFile is the file the first (cold) command hashes.
	shellColdFile = 10
)

// shellWords is the vocabulary of generated lines and grep patterns.
var shellWords = strings.Fields(`alpha bravo charlie delta echo foxtrot golf hotel india juliet
kilo lima mike november oscar papa quebec romeo sierra tango uniform victor whiskey xray
yankee zulu amber basalt cobalt dune ember fjord garnet harbor iris jade kestrel lagoon
meadow nectar onyx prairie quartz ridge saffron tundra umber velvet willow yarrow zephyr`)

// shellInputs are the generated files, by path.
type shellInputs struct {
	paths []string
	data  map[string][]byte
}

// genShellInputs makes the seeded files: sizes log-spaced from 4 KiB to
// 1 MiB with a small seeded jitter, contents lines of seeded words.
func genShellInputs(seed int64) *shellInputs {
	rng := rand.New(rand.NewSource(seed ^ 0x5e11))
	in := &shellInputs{data: map[string][]byte{}}
	for i := 0; i < shellFiles; i++ {
		size := 4096 * math.Pow(256, float64(i)/float64(shellFiles-1)) * (0.97 + 0.06*rng.Float64())
		var buf bytes.Buffer
		for buf.Len() < int(size) {
			fmt.Fprintf(&buf, "%06d %s %s %s\n", rng.Intn(1_000_000),
				shellWords[rng.Intn(len(shellWords))], shellWords[rng.Intn(len(shellWords))],
				shellWords[rng.Intn(len(shellWords))])
		}
		p := fmt.Sprintf("/data/f%02d", i)
		in.paths = append(in.paths, p)
		in.data[p] = buf.Bytes()
	}
	return in
}

// stage writes the inputs into an instance, plus the initial contents of
// the output slots (copies of the smallest files).
func (si *shellInputs) stage(in *browsix.Instance) {
	fsv := in.FS()
	must(fsv.MkdirAll("data", 0o755))
	for _, p := range si.paths {
		must(fsv.WriteFile(p[1:], si.data[p], 0o644))
	}
	for k := 0; k < shellSlots; k++ {
		must(fsv.WriteFile(fmt.Sprintf("tmp/o%d", k), si.data[si.paths[k%4]], 0o644))
	}
}

// shellOp is one command and its expected outcome.
type shellOp struct {
	argv []string
	want string // exact expected stdout
}

// shellGen produces the seeded command sequence. It tracks the expected
// contents of the output slots, so it must see ops in order; replays
// use a fresh generator with the same seed.
type shellGen struct {
	in    *shellInputs
	rng   *rand.Rand
	slots [shellSlots][]byte
	kinds []int // the current block's remaining kinds
	// files holds, per kind, the remaining input files of its current
	// cycle: each kind visits every file once per 16 uses, so the
	// size mix is the same for every seed.
	files [10][]int
}

func newShellGen(seed int64, in *shellInputs) *shellGen {
	g := &shellGen{in: in, rng: rand.New(rand.NewSource(seed ^ 0xc0de))}
	g.resetSlots()
	return g
}

// resetSlots sets the expected slot contents to what stage writes: a
// freshly staged instance holds them again.
func (g *shellGen) resetSlots() {
	for k := range g.slots {
		g.slots[k] = g.in.data[g.in.paths[k%4]]
	}
}

func sh(cmd string) []string { return []string{"/bin/sh", "-c", cmd} }

func sha1Line(data []byte, name string) string {
	return fmt.Sprintf("%x  %s\n", sha1.Sum(data), name)
}

func lines(data []byte) []string {
	return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
}

func sortedBytes(data []byte) []byte {
	ls := lines(data)
	sort.Strings(ls)
	return []byte(strings.Join(ls, "\n") + "\n")
}

func count(n int) string { return fmt.Sprintf("%8d\n", n) }

// next returns op i. Op 0 is the cold op, always a sha1sum of the same
// size class; after it, every block of ten ops runs each kind once in a
// seeded order, so the mix of kinds and sizes is the same for every
// seed and only the order and the bytes change.
func (g *shellGen) next(i int) shellOp {
	if i == 0 {
		p := g.in.paths[shellColdFile]
		return shellOp{[]string{"/usr/bin/sha1sum", p}, sha1Line(g.in.data[p], p)}
	}
	if len(g.kinds) == 0 {
		g.kinds = g.rng.Perm(10)
	}
	kind := g.kinds[0]
	g.kinds = g.kinds[1:]
	if len(g.files[kind]) == 0 {
		g.files[kind] = g.rng.Perm(shellFiles)
	}
	j := g.files[kind][0] // the size class, 0 to shellFiles-1
	f := g.in.paths[j]
	g.files[kind] = g.files[kind][1:]
	data := g.in.data[f]
	slot := g.rng.Intn(shellSlots)
	out := fmt.Sprintf("/tmp/o%d", slot)
	switch kind {
	case 0:
		return shellOp{[]string{"/usr/bin/sha1sum", f}, sha1Line(data, f)}
	case 1:
		return shellOp{[]string{"/usr/bin/ls", "/data"}, strings.Join(g.lsData(), "\n") + "\n"}
	case 2:
		return shellOp{sh("cat " + f + " | wc -c"), count(len(data))}
	case 3:
		ls := lines(sortedBytes(data))
		return shellOp{sh("sort " + f + " | head -n 5"), strings.Join(ls[:5], "\n") + "\n"}
	case 4:
		w := shellWords[g.rng.Intn(len(shellWords))]
		n := 0
		for _, l := range lines(data) {
			if strings.Contains(l, w) {
				n++
			}
		}
		return shellOp{sh("grep " + w + " " + f + " | wc -l"), count(n)}
	case 5:
		// Lines in the size class's step of 1000 to 20000, as files
		// cycle through theirs.
		n := 1000 + j*19_000/shellFiles + g.rng.Intn(19_000/shellFiles)
		return shellOp{sh(fmt.Sprintf("seq 1 %d | tail -n 3", n)),
			fmt.Sprintf("%d\n%d\n%d\n", n-2, n-1, n)}
	case 6:
		f2 := g.in.paths[g.rng.Intn(shellFiles/2)]
		g.slots[slot] = append(append([]byte(nil), data...), g.in.data[f2]...)
		return shellOp{sh("cat " + f + " " + f2 + " > " + out), ""}
	case 7:
		return shellOp{[]string{"/usr/bin/sha1sum", out}, sha1Line(g.slots[slot], out)}
	case 8:
		g.slots[slot] = sortedBytes(data)
		return shellOp{sh("sort " + f + " > " + out + " && wc -l < " + out), count(len(lines(data)))}
	default:
		return shellOp{sh("wc -l < " + f), count(len(lines(data)))}
	}
}

func (g *shellGen) lsData() []string {
	names := make([]string, len(g.in.paths))
	for i, p := range g.in.paths {
		names[i] = strings.TrimPrefix(p, "/data/")
	}
	return names
}

// runOp starts one command, waits for it and checks its output. It
// returns the virtual ns it took and a failure description ("" if ok).
func runCommand(b *bench, in *browsix.Instance, id int, argv []string, want string) (int64, string, []byte) {
	var stdout, stderr bytes.Buffer
	v0 := in.Now()
	var p *browsix.Process
	var err error
	b.tr.do("start", "op", id, 0, in, func() {
		p, err = in.Start(browsix.Spec{Argv: argv, Stdout: &stdout, Stderr: &stderr})
	})
	if err != nil {
		return in.Now() - v0, fmt.Sprintf("op %d %q: start: %v", id, argv, err), nil
	}
	var code int
	b.tr.do("wait", "op", id, 0, in, func() { code, err = p.Wait() })
	virt := in.Now() - v0
	switch {
	case err != nil:
		return virt, fmt.Sprintf("op %d %q: wait: %v", id, argv, err), nil
	case code != 0:
		return virt, fmt.Sprintf("op %d %q: exit %d: %s", id, argv, code, stderr.Bytes()), nil
	case stdout.String() != want:
		return virt, fmt.Sprintf("op %d %q: stdout %q, want %q", id, argv, clip(stdout.String()), clip(want)), nil
	}
	return virt, "", stdout.Bytes()
}

func clip(s string) string {
	if len(s) > 80 {
		return s[:80] + "..."
	}
	return s
}

func runShell(b *bench) {
	inputs := genShellInputs(b.seed)
	b.runClosedLoop(closedLoop{
		boot: func() *browsix.Instance { return browsix.Boot(browsix.Config{}) },
		stage: func(in *browsix.Instance) {
			browsix.InstallBase(in)
			inputs.stage(in)
		},
		newOps: func() func(*browsix.Instance, int, int) (int64, string, []byte) {
			g := newShellGen(b.seed, inputs)
			var cur *browsix.Instance
			return func(in *browsix.Instance, id, i int) (int64, string, []byte) {
				if in != cur {
					// The resident instance was replaced by a fresh one.
					g.resetSlots()
					cur = in
				}
				op := g.next(i)
				return runCommand(b, in, id, op.argv, op.want)
			}
		},
		replay: shellReplay, virtOps: shellVirtOps, minOps: shellVirtOps, perSec: shellPerSec,
		perInstance: shellPerInstance, limitMs: shellLimitMs,
	})
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
