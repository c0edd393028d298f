package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	browsix "repro"
)

// setupRuns is how many times each workload boots and stages an
// instance in one run: setup_s is their median, and the extra instances
// replay the workload's first ops to check determinism.
const setupRuns = 7

// bench carries one run: its inputs, what it measured and its outcome.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	tr       *tracer // nil unless --trace 1

	// Outcome. Every op the benchmark checks counts in attempted; an
	// oracle mismatch, error, refusal or gate violation counts in failed.
	// drift marks a virtual-time replay mismatch: the run is not correct.
	attempted, failed int
	problems          []string
	drift             bool

	// Set-up, in host CPU time: one sample per setupRuns.
	setupS, bootMs, stageMs, bootMB []float64

	// The timed window (untraced calls only): ops, host CPU and wall
	// seconds, and per-op host CPU ms.
	ops               int
	cpuSecs, wallSecs float64
	hostMs            []float64
	allocBytes        uint64
	tailAt            int // sample count the host tail percentile is chosen for

	// Virtual-time results, bit-identical for a seed: per-op virtual
	// latencies, or (when the program reports percentiles itself) their
	// p50 and tail directly.
	virtMs                      []float64
	virtP50, virtTail           float64
	virtN                       int
	virtTailPct                 float64
	coldVirtMs, sloRps, peakRps float64

	// layer holds per-layer values only the workload can compute
	// (netsim rates, fleet dedup); notes are extra stderr lines.
	layer map[string]float64
	notes []string
}

func newBench(workload string, seed int64, seconds time.Duration, trace bool) *bench {
	b := &bench{workload: workload, seed: seed, seconds: seconds, layer: map[string]float64{}}
	if trace {
		b.tr = newTracer()
	}
	return b
}

// fail counts one failed op and keeps its description for stderr.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	b.problem(format, args...)
}

// problem keeps the description of a failure counted elsewhere (timed
// ops report theirs through opResult).
func (b *bench) problem(format string, args ...any) {
	if len(b.problems) < 12 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted op and fails it with msg unless ok.
func (b *bench) check(ok bool, format string, args ...any) bool {
	b.attempted++
	if !ok {
		b.fail(format, args...)
	}
	return ok
}

// gate records a determinism or ledger check. A violation is a failed
// op; a determinism violation also makes the run incorrect.
func (b *bench) gate(ok, determinism bool, format string, args ...any) {
	if ok {
		return
	}
	b.attempted++
	b.fail("gate: "+format, args...)
	if determinism {
		b.drift = true
	}
}

// setup boots and stages one instance, timing both phases in host CPU
// time and counting the bytes they allocate. A GC first keeps garbage
// from earlier phases out of the sample.
func (b *bench) setup(k int, boot func() *browsix.Instance, stage func(*browsix.Instance)) *browsix.Instance {
	runtime.GC()
	var m0, m1 runtime.MemStats
	var in *browsix.Instance
	var c0, c1, c2 time.Duration
	b.tr.do("setup", "run", k, 0, nil, func() {
		runtime.ReadMemStats(&m0)
		c0 = cpuTime()
		b.tr.do("boot", "setup", k, 0, nil, func() { in = boot() })
		c1 = cpuTime()
		b.tr.do("stage", "setup", k, 0, in, func() { stage(in) })
		c2 = cpuTime()
		runtime.ReadMemStats(&m1)
	})
	b.setupS = append(b.setupS, (c2 - c0).Seconds())
	b.bootMs = append(b.bootMs, ms(c1-c0))
	b.stageMs = append(b.stageMs, ms(c2-c1))
	b.bootMB = append(b.bootMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	return in
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// teardown quiesces a resident instance and checks its ledgers: every
// page lease returned and no write-staging slot left leased.
func (b *bench) teardown(in *browsix.Instance) {
	in.Run()
	grants, returns := in.Kernel.LeaseGrants.Load(), in.Kernel.LeaseReturns.Load()
	staged := in.VFS.WriteStagedSlots()
	b.layer["rt.leases_outstanding"] += float64(grants - returns)
	b.layer["fs.staged_slots_leaked"] += float64(staged)
	b.gate(grants == returns, false, "lease ledger: %d grants, %d returns", grants, returns)
	b.gate(staged == 0, false, "%d write-staging slots still leased", staged)
}

// opResult is what one timed call did: ops completed (a command, a
// build, a simulated request, a session) and how many of them failed.
// Ops that ran in parallel give their wall times in wallMs; each then
// gets the share of the call's CPU time its wall time is of their sum.
// Otherwise the call's CPU time divided by ops is one sample.
type opResult struct {
	ops, failed int
	wallMs      []float64
}

// calls is how many calls a window makes: perSec calls, a workload's
// rate on a 2-vCPU host, for each measuring second, and at least
// minCalls. The work is fixed rather than timed, so a seed's attempted
// and failed ops are the same on every run; the window lasts about
// --seconds on that host, longer on a slower one.
func (b *bench) calls(perSec float64, minCalls int) int {
	return max(minCalls, int(perSec*b.seconds.Seconds()))
}

// window calls op n times back to back; prepare, when non-nil, runs
// untimed before each call. Host time is the process's CPU time (all
// threads: the simulation, the garbage collector, fleet workers), which
// a busy neighbour on a shared machine disturbs less than wall time.
// With tracing on, the calls in the odd tenths of the window are traced:
// spans, counters and the CPU profile, which runs only then. Instance
// replacements fall in both halves alike, as they do not keep step with
// the tenths. Host metrics come from the untraced calls, spans, counters
// and the profile from the traced ones, and the two ops rates give the
// whole tracing overhead, the profiler's included.
func (b *bench) window(n int, prepare func(i int), op func(i int, traced bool) opResult) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	var untimed uint64
	for i := 0; i < n; i++ {
		traced := b.tr != nil && i*10/n%2 == 1
		if b.tr != nil {
			b.tr.enable(traced)
			b.tr.profile(traced, b.tracePath("-cpu"))
		}
		if prepare != nil {
			// What prepare allocates is not the ops' allocation.
			var p0, p1 runtime.MemStats
			runtime.ReadMemStats(&p0)
			prepare(i)
			runtime.ReadMemStats(&p1)
			untimed += p1.TotalAlloc - p0.TotalAlloc
		}
		t0, c0 := time.Now(), cpuTime()
		r := op(i, traced)
		wall, cpu := time.Since(t0), cpuTime()-c0
		b.attempted += r.ops
		b.failed += r.failed
		if traced {
			b.tr.ops += r.ops
			b.tr.hostNs += cpu.Nanoseconds()
			continue
		}
		b.ops += r.ops
		b.cpuSecs += cpu.Seconds()
		b.wallSecs += wall.Seconds()
		if tot := sum(r.wallMs); tot > 0 {
			for _, w := range r.wallMs {
				b.hostMs = append(b.hostMs, ms(cpu)*w/tot)
			}
		} else if r.ops > 0 {
			b.hostMs = append(b.hostMs, ms(cpu)/float64(r.ops))
		}
	}
	if b.tr != nil {
		b.tr.fold()
		b.tr.enable(true)
	}
	runtime.ReadMemStats(&m1)
	b.allocBytes = m1.TotalAlloc - m0.TotalAlloc - untimed
}

// timedOp runs fn, op i's body, as span name. In a traced call it adds
// in's counter delta over fn to the per-layer totals and to the span.
func (b *bench) timedOp(name string, in *browsix.Instance, i int, traced bool, fn func()) {
	if !traced {
		fn()
		return
	}
	c0 := snapshot(in)
	b.tr.do(name, "run", i, 0, in, fn)
	d := snapshot(in).sub(c0)
	b.tr.layer.add(d)
	b.tr.spans[len(b.tr.spans)-1].args = d
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cpuTime is the CPU time the process has used, all threads, user and
// system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// tracePath names a trace output of this run under .bench_build/traces.
func (b *bench) tracePath(suffix string) string {
	return filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d%s", b.workload, b.seed, suffix))
}

// t0 is the host time spans are stamped from.
func (b *bench) t0() time.Time {
	if b.tr != nil {
		return b.tr.t0
	}
	return time.Now()
}
