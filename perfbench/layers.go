package main

import (
	"fmt"
	"sort"
	"strings"
)

// traps are the syscalls reported as core.trap.<name>_per_op: the union
// of the ten most frequent traps of each workload at seed 1.
var traps = []string{"accept", "access", "close", "exit", "open", "poll", "read", "readg", "readv",
	"spawn", "stat", "unlease", "wait4", "wgalloc", "write", "writeg", "writev"}

// swarmRates are the fixed offered rates (requests per virtual second)
// meme-swarm probes; netsim.rate.<r>.* report each of them.
var swarmRates = []int{500, 1000, 2000, 3000}

// layerNames lists every per-layer metric in a fixed order; every
// workload reports all of them (0 where a layer does no work).
func layerNames() []string {
	names := []string{
		"browsix.boot_host_ms", "browsix.stage_host_ms", "browsix.boot_alloc_mb", "browsix.retained_mb_per_op",
		"sched.events_per_op", "sched.host_ns_per_event",
		"core.async_calls_per_op", "core.sync_calls_per_op", "core.ring_calls_per_op",
		"core.ring_notifies_per_op", "core.ring_batch", "core.fs_batched_per_op",
		"core.signals_per_op",
		"core.read_copied_kb_per_op", "core.write_copied_kb_per_op",
		"core.granted_kb_per_op", "core.write_granted_kb_per_op",
		"rt.lease_grants_per_op", "rt.leases_outstanding",
		"snapshot.captures", "snapshot.clone_boots_per_op", "snapshot.cow_faults_per_op",
		"fs.page_hit_ratio", "fs.page_misses_per_op", "fs.readahead_per_op",
		"fs.dentry_hit_ratio", "fs.walk_hits_per_op", "fs.readdir_hit_ratio",
		"fs.httpfs_fetches", "fs.httpfs_kb",
		"fs.buffered_writes_per_op", "fs.flush_writes_per_op", "fs.coalesce_ratio",
		"fs.dedup_hit_ratio", "fs.dedup_factor", "fs.pages_per_tenant",
		"fs.arena_slots_used", "fs.staged_slots_leaked",
		"netsim.retries", "netsim.kb_per_req", "netsim.drain_ms",
		"trace.overhead_pct",
	}
	for _, t := range traps {
		names = append(names, "core.trap."+t+"_per_op")
	}
	for _, r := range swarmRates {
		for _, k := range []string{"p50", "tail", "rps"} {
			names = append(names, fmt.Sprintf("netsim.rate.%d.%s", r, k))
		}
	}
	for _, m := range modules {
		names = append(names, "host_self_pct."+m)
	}
	return names
}

// layerUnit gives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"), strings.HasSuffix(name, ".p50"), strings.HasSuffix(name, ".tail"):
		return "ms"
	case strings.HasSuffix(name, "_mb"), strings.HasSuffix(name, "_mb_per_op"):
		return "MB"
	case strings.HasSuffix(name, "_ns_per_event"):
		return "ns"
	case strings.HasSuffix(name, "_pct"), strings.HasPrefix(name, "host_self_pct."):
		return "%"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_factor"), strings.HasSuffix(name, ".ring_batch"):
		return "ratio"
	case strings.HasSuffix(name, "_kb_per_op"), strings.HasSuffix(name, "_kb"), strings.HasSuffix(name, "kb_per_req"):
		return "KiB"
	case strings.HasSuffix(name, ".rps"):
		return "1/s"
	}
	return "count"
}

// perLayer computes every per-layer metric from the traced ops'
// counter deltas, the folded CPU profile and the workload's own values.
func (b *bench) perLayer() map[string]metric {
	t := b.tr
	c := t.layer
	ops := float64(t.ops)
	per := func(k string) float64 { return ratio(float64(c[k]), ops) }
	kbPer := func(k string) float64 { return ratio(float64(c[k])/1024, ops) }
	v := map[string]float64{
		"browsix.boot_host_ms":         median(b.bootMs),
		"browsix.stage_host_ms":        median(b.stageMs),
		"browsix.boot_alloc_mb":        median(b.bootMB),
		"sched.events_per_op":          per("steps"),
		"sched.host_ns_per_event":      ratio(float64(t.hostNs), float64(c["steps"])),
		"core.async_calls_per_op":      per("async"),
		"core.sync_calls_per_op":       per("sync"),
		"core.ring_calls_per_op":       per("ring"),
		"core.ring_notifies_per_op":    per("ring_notifies"),
		"core.ring_batch":              ratio(float64(c["ring"]), float64(c["ring_notifies"])),
		"core.fs_batched_per_op":       per("fs_batched"),
		"core.signals_per_op":          per("signals"),
		"core.read_copied_kb_per_op":   kbPer("read_copied"),
		"core.write_copied_kb_per_op":  kbPer("write_copied"),
		"core.granted_kb_per_op":       kbPer("granted"),
		"core.write_granted_kb_per_op": kbPer("write_granted"),
		"rt.lease_grants_per_op":       per("lease_grants"),
		"snapshot.captures":            float64(c["snap_captures"]),
		"snapshot.clone_boots_per_op":  per("clone_boots"),
		"fs.page_hit_ratio":            ratio(float64(c["page_hits"]), float64(c["page_hits"]+c["page_misses"])),
		"fs.page_misses_per_op":        per("page_misses"),
		"fs.readahead_per_op":          per("readahead"),
		"fs.dentry_hit_ratio": ratio(float64(c["dentry_hits"]+c["negative_hits"]),
			float64(c["dentry_hits"]+c["negative_hits"]+c["dentry_misses"])),
		"fs.walk_hits_per_op":       per("walk_hits"),
		"fs.readdir_hit_ratio":      ratio(float64(c["readdir_hits"]), float64(c["readdir_hits"]+c["readdir_misses"])),
		"fs.buffered_writes_per_op": per("buffered_writes"),
		"fs.flush_writes_per_op":    per("flush_writes"),
		"fs.coalesce_ratio":         ratio(float64(c["buffered_writes"]), float64(c["flush_writes"])),
		"fs.dedup_hit_ratio":        ratio(float64(c["dedup_hits"]), float64(c["dedup_stores"])),
	}
	for _, tr := range traps {
		v["core.trap."+tr+"_per_op"] = per("trap." + tr)
	}
	var profNs int64
	for _, n := range t.prof {
		profNs += n
	}
	for _, m := range modules {
		v["host_self_pct."+m] = ratio(float64(t.prof[m])*100, float64(profNs))
	}
	tracedRate := ratio(ops, float64(t.hostNs)/1e9)
	v["trace.overhead_pct"] = (ratio(float64(b.ops)/b.cpuSecs, tracedRate) - 1) * 100
	for k, x := range b.layer {
		v[k] = x
	}

	out := map[string]metric{}
	for _, n := range layerNames() {
		out[n] = metric{v[n], layerUnit(n)}
	}
	b.notes = append(b.notes, fmt.Sprintf("traced ops %d, untraced ops %d, profiled %.2f s in %d files (other %.2f s, bench %.2f s)",
		t.ops, b.ops, float64(profNs)/1e9, len(t.profFiles), float64(t.prof["other"])/1e9, float64(t.prof["bench"])/1e9))
	b.notes = append(b.notes, "top traps: "+topTraps(c, 10))
	for _, e := range t.profErrs {
		b.notes = append(b.notes, "profile: "+e)
	}
	return out
}

// topTraps lists the n most frequent traps of a counter delta.
func topTraps(c counters, n int) string {
	type tc struct {
		name string
		n    int64
	}
	var all []tc
	for k, x := range c {
		if strings.HasPrefix(k, "trap.") {
			all = append(all, tc{strings.TrimPrefix(k, "trap."), x})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].name < all[j].name
	})
	var parts []string
	for i := 0; i < len(all) && i < n; i++ {
		parts = append(parts, fmt.Sprintf("%s=%d", all[i].name, all[i].n))
	}
	return strings.Join(parts, " ")
}
