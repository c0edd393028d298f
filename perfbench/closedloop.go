package main

import (
	"crypto/sha1"
	"fmt"
	"runtime"

	browsix "repro"
)

// closedLoop is a workload with one closed-loop client: each op starts
// when the previous one ended (shell commands, LaTeX builds).
type closedLoop struct {
	boot  func() *browsix.Instance
	stage func(*browsix.Instance)
	// newOps returns a fresh op sequence: op(in, id, i) runs op i on in
	// (id labels its spans; replays use -1) and returns its virtual ns,
	// a failure description ("" if the oracle passed) and its output.
	newOps func() func(in *browsix.Instance, id, i int) (int64, string, []byte)
	// replay ops run on every replay instance; the first virtOps ops'
	// virtual latencies are reported; the window runs perSec ops per
	// measuring second and at least minOps; one instance serves
	// perInstance ops (see resident); an op counts toward virt_slo_rps
	// when correct and within limitMs.
	replay, virtOps, minOps, perInstance int
	perSec, limitMs                      float64
}

// runClosedLoop sets up setupRuns instances. All but the last replay the
// first ops, which must agree bit for bit with each other and with the
// timed run; the last serves the timed window.
func (b *bench) runClosedLoop(c closedLoop) {
	var sig []string
	signature := func(virt int64, out []byte) string { return fmt.Sprintf("%d:%x", virt, sha1.Sum(out)) }
	for k := 0; k < setupRuns-1; k++ {
		in := b.setup(k, c.boot, c.stage)
		op := c.newOps()
		for i := 0; i < c.replay; i++ {
			virt, bad, out := op(in, -1, i)
			b.check(bad == "", "replay %d: %s", k, bad)
			if s := signature(virt, out); k == 0 {
				sig = append(sig, s)
			} else {
				b.gate(s == sig[i], true, "replay %d op %d: %s, first replay %s", k, i, s, sig[i])
			}
		}
	}

	r := b.newResident(b.setup(setupRuns-1, c.boot, c.stage), c)
	op := c.newOps()
	var virtOK int
	b.tailAt = c.minOps
	b.window(b.calls(c.perSec, c.minOps), r.prepare, func(i int, traced bool) opResult {
		in := r.in
		r.ops++
		var virt int64
		var bad string
		var out []byte
		b.timedOp("op", in, i, traced, func() { virt, bad, out = op(in, i, i) })
		res := opResult{ops: 1}
		if bad != "" {
			b.problem("%s", bad)
			res.failed = 1
		}
		if i < len(sig) {
			s := signature(virt, out)
			b.gate(s == sig[i], true, "timed op %d: %s, replay %s", i, s, sig[i])
		}
		if i < c.virtOps {
			vms := float64(virt) / 1e6
			b.virtMs = append(b.virtMs, vms)
			if bad == "" && vms <= c.limitMs {
				virtOK++
			}
		}
		return res
	})
	b.teardown(r.in)
	b.coldVirtMs = b.virtMs[0]
	virtS := sum(b.virtMs) / 1e3
	b.peakRps = float64(len(b.virtMs)) / virtS
	b.sloRps = float64(virtOK) / virtS
}

// resident is the instance a closed-loop workload drives. The program
// keeps every spawned process's executable blob and Worker for the life
// of its instance (about 3 MB per shell command, 15 MB per LaTeX build),
// so one instance serves perInstance ops and is then torn down and
// replaced by a freshly booted and staged one, untimed; the first op on
// the replacement is cold again. The live heap the first instance gains
// per op is reported as browsix.retained_mb_per_op.
type resident struct {
	b     *bench
	c     closedLoop
	in    *browsix.Instance
	ops   int    // ops served by in
	heap0 uint64 // live heap once in was staged (first instance only)
}

// newResident adopts in, the last set-up instance, as the first one.
func (b *bench) newResident(in *browsix.Instance, c closedLoop) *resident {
	return &resident{b: b, c: c, in: in, heap0: liveHeap()}
}

// prepare runs untimed before each op: it replaces a spent instance.
func (r *resident) prepare(int) {
	if r.ops < r.c.perInstance {
		return
	}
	if r.heap0 > 0 {
		r.b.layer["browsix.retained_mb_per_op"] = (float64(liveHeap()) - float64(r.heap0)) / (1 << 20) / float64(r.ops)
		r.heap0 = 0
	}
	r.b.teardown(r.in)
	r.in = r.c.boot()
	r.c.stage(r.in)
	// As in setup: the old instance and the staging garbage are
	// collected here, not during the next timed op.
	runtime.GC()
	r.ops = 0
}
