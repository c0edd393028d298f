package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	browsix "repro"
)

// counters is a snapshot of the counters the program already exports:
// the kernel's atomics and per-trap SyscallCount, the scheduler's step
// count and the VFS cache statistics. Keys are stable names; deltas of
// two snapshots give one op's work.
type counters map[string]int64

// snapshot reads every counter of in. Call it only while in is
// quiescent (between ops): SyscallCount is owned by the instance thread.
func snapshot(in *browsix.Instance) counters {
	k := in.Kernel
	c := counters{
		"steps":         int64(in.Sim.Steps()),
		"async":         k.AsyncSyscalls.Load(),
		"sync":          k.SyncSyscalls.Load(),
		"ring":          k.RingSyscalls.Load(),
		"ring_batched":  k.RingBatchedCalls.Load(),
		"ring_notifies": k.RingNotifies.Load(),
		"fs_batched":    k.FSBatchedCalls.Load(),
		"signals":       k.SignalsDelivered.Load(),
		"read_copied":   k.ReadCopiedBytes.Load(),
		"granted":       k.GrantedBytes.Load(),
		"write_copied":  k.WriteCopiedBytes.Load(),
		"write_granted": k.WriteGrantedBytes.Load(),
		"lease_grants":  k.LeaseGrants.Load(),
		"lease_returns": k.LeaseReturns.Load(),
		"snap_captures": k.SnapshotCaptures.Load(),
		"clone_boots":   k.CloneBoots.Load(),
	}
	for name, n := range k.SyscallCount {
		c["trap."+name] = n
	}
	cs := in.VFS.CacheStats()
	c["page_hits"] = cs.PageHits
	c["page_misses"] = cs.PageMisses
	c["readahead"] = cs.ReadaheadOps
	c["dentry_hits"] = cs.DentryHits
	c["dentry_misses"] = cs.DentryMisses
	c["negative_hits"] = cs.NegativeHits
	c["walk_hits"] = cs.WalkHits
	c["readdir_hits"] = cs.ReaddirHits
	c["readdir_misses"] = cs.ReaddirMisses
	c["buffered_writes"] = cs.BufferedWrites
	c["flush_writes"] = cs.FlushWrites
	c["dedup_hits"] = cs.DedupHits
	c["dedup_stores"] = cs.DedupStores
	return c
}

// sub returns c - o, key by key.
func (c counters) sub(o counters) counters {
	d := counters{}
	for k, v := range c {
		if x := v - o[k]; x != 0 {
			d[k] = x
		}
	}
	return d
}

// add accumulates o into c.
func (c counters) add(o counters) {
	for k, v := range o {
		c[k] += v
	}
}

// span is one timed call from the benchmark into a layer's public API,
// stamped on both clocks. Spans of one op share id.
type span struct {
	name, parent string
	id, tid      int
	host0, host1 time.Duration // host time since the run began
	virt0, virt1 int64         // instance virtual ns (0 without an instance)
	args         counters      // the op's counter delta (traced ops only)
}

// tracer records spans, per-op counter deltas and a CPU profile during
// the traced calls of a run. A nil or disabled *tracer records nothing,
// so the untraced path pays one check per call.
type tracer struct {
	t0    time.Time
	on    bool
	spans []span
	// layer accumulates counter deltas over the traced ops; ops counts
	// them and hostNs is their host time.
	layer  counters
	ops    int
	hostNs int64
	// CPU profile files and their sample time (ns) folded by module.
	prof      map[string]int64
	profFiles []string
	profFile  *os.File
	profOn    bool
	profErrs  []string
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), on: true, layer: counters{}, prof: map[string]int64{}}
}

// enable turns span recording on or off (the window's untraced calls
// record nothing).
func (t *tracer) enable(on bool) {
	if t != nil {
		t.on = on
	}
}

// do runs fn as span name. in, when non-nil, stamps virtual time.
func (t *tracer) do(name, parent string, id, tid int, in *browsix.Instance, fn func()) {
	if t == nil || !t.on {
		fn()
		return
	}
	s := span{name: name, parent: parent, id: id, tid: tid, host0: time.Since(t.t0)}
	if in != nil {
		s.virt0 = in.Now()
	}
	fn()
	s.host1 = time.Since(t.t0)
	if in != nil {
		s.virt1 = in.Now()
	}
	t.spans = append(t.spans, s)
}

// record adds one finished span measured by the caller (fleet sessions
// run on worker goroutines and are recorded after the batch joins).
func (t *tracer) record(s span) {
	if t != nil {
		t.spans = append(t.spans, s)
	}
}

// profile turns the CPU profiler on or off. Each stretch it is on goes
// to its own file under dir; fold reads them all.
func (t *tracer) profile(on bool, dir string) {
	if on == t.profOn {
		return
	}
	if !on {
		pprof.StopCPUProfile()
		t.profOn = false
		must(t.profFile.Close())
		return
	}
	if len(t.profFiles) == 0 {
		must(os.RemoveAll(dir)) // an earlier run's profiles
	}
	must(os.MkdirAll(dir, 0o755))
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("cpu%03d.pb.gz", len(t.profFiles))))
	must(err)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		t.profErrs = append(t.profErrs, err.Error())
		return
	}
	t.profFile, t.profOn = f, true
	t.profFiles = append(t.profFiles, f.Name())
}

// fold stops the profiler and folds every profile file by module.
func (t *tracer) fold() {
	t.profile(false, "")
	if err := foldProfiles(t.profFiles, t.prof); err != nil {
		t.profErrs = append(t.profErrs, err.Error())
	}
}

// writeChrome writes the spans as Chrome Trace Event JSON: pid 1 is the
// host clock, pid 2 the virtual clock, so each span appears on both.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	evs := []event{
		{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "host clock"}},
		{Name: "process_name", Ph: "M", Pid: 2, Args: map[string]any{"name": "virtual clock"}},
	}
	for _, s := range t.spans {
		args := map[string]any{"id": s.id, "parent": s.parent,
			"host_start_us": us(s.host0), "host_end_us": us(s.host1),
			"virt_start_ns": s.virt0, "virt_end_ns": s.virt1}
		for k, v := range s.args {
			args[k] = v
		}
		evs = append(evs, event{Name: s.name, Cat: s.parent, Ph: "X", Ts: us(s.host0),
			Dur: us(s.host1 - s.host0), Pid: 1, Tid: s.tid, Args: args})
		if s.virt1 > 0 {
			evs = append(evs, event{Name: s.name, Cat: s.parent, Ph: "X", Ts: float64(s.virt0) / 1e3,
				Dur: float64(s.virt1-s.virt0) / 1e3, Pid: 2, Tid: s.tid, Args: args})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
